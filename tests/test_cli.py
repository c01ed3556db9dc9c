import json
import math
import os

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from bykovlab import cli
from bykovlab import orbits as ob
from bykovlab.config import ConfigError, parse_config

BASE_CONFIG = """\
model:
  c1: 2.0
  e1: 1.0
  omega1: {omega}
  c2: 3.0
  e2: 1.0
  omega2: {omega}
  xi: 0.0
  lambda: {lam}
perturbation:
  phi1: {{family: cosine}}
  phi2: {{family: offset_sine}}
seed: 0
"""


def write_config(tmp_path, extra="", omega=5.0 / 3.0, lam=1e-3):
    path = tmp_path / "run.yaml"
    path.write_text(BASE_CONFIG.format(omega=repr(omega), lam=repr(lam))
                    + extra)
    return str(path)


def schema(name):
    here = os.path.join(os.path.dirname(cli.__file__), "schemas", name)
    with open(here) as fh:
        return json.load(fh)


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(BASE_CONFIG.format(omega="1.0", lam="0.001"))
        assert cfg.params.k_omega == pytest.approx(3.0)
        assert cfg.seed == 0
        assert len(cfg.sha256) == 64

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(BASE_CONFIG.format(omega="1.0", lam="0.001")
                         + "bogus: 1\n")

    def test_missing_model_key_rejected(self):
        text = BASE_CONFIG.format(omega="1.0", lam="0.001")
        text = text.replace("  xi: 0.0\n", "")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_trig_block_profile(self):
        text = BASE_CONFIG.format(omega="1.0", lam="0.001").replace(
            "phi2: {family: offset_sine}",
            "phi2: {trig: {constant: 1.1, terms: [[1, 0.0, 1.0]]}}")
        cfg = parse_config(text)
        assert cfg.pert.phi2(0.0, 0.0) == pytest.approx(1.1)

    def test_invalid_perturbation_rejected(self):
        text = BASE_CONFIG.format(omega="1.0", lam="0.001").replace(
            "phi2: {family: offset_sine}",
            "phi2: {family: offset_sine, offset: 0.2}")
        with pytest.raises(Exception):
            parse_config(text)


class TestCommands:
    def test_iterate_writes_orbit(self, tmp_path):
        cfgp = write_config(tmp_path, "iterate: {n: 50}\n")
        out = str(tmp_path / "out")
        assert cli.main(["iterate", "--config", cfgp, "--out", out]) == 0
        lines = open(os.path.join(out, "orbit.csv")).read().splitlines()
        assert lines[0].startswith("# bykovlab")
        assert "config sha256" in lines[1]
        header_at = next(i for i, l in enumerate(lines)
                         if not l.startswith("#"))
        assert lines[header_at] == "iterate,x,y"
        assert len(lines) - header_at - 1 == 51  # initial point + 50

    def test_scan_shape_and_svg(self, tmp_path):
        cfgp = write_config(tmp_path, (
            "scan:\n"
            "  lambda_grid: [0.001]\n"
            "  k_omega_grid: [0.1]\n"
            "  n_iter: 2000\n  burn_in: 200\n"))
        out = str(tmp_path / "out")
        assert cli.main(["scan", "--config", cfgp, "--out", out]) == 0
        rows = [l for l in open(os.path.join(out, "scan.csv"))
                if not l.startswith("#")]
        assert len(rows) == 2  # header + one cell
        svg = open(os.path.join(out, "regime_map.svg")).read()
        assert svg.count("<rect") >= 3  # background + cell + legend patch
        assert "</svg>" in svg

    def test_scan_thresholds_default_to_budget(self, tmp_path):
        # at (lambda, K) = (0.1, 0.3) the orbit thickness lies between 5e-3
        # and 0.02, so the label shows which curve threshold was used
        cfgp = write_config(tmp_path, (
            "scan: {lambda_grid: [0.1], k_omega_grid: [0.1, 0.3], "
            "n_iter: 2000, burn_in: 200}\n"))
        out = tmp_path / "out"
        assert cli.main(["scan", "--config", cfgp, "--out", str(out)]) == 0
        rows = [l.rstrip("\n") for l in open(out / "scan.csv")
                if not l.startswith("#")][1:]
        cfg = parse_config(open(cfgp).read())
        result = ob.scan([0.1], [0.1, 0.3], cfg.params, cfg.pert,
                         ob.Budget(n_iter=2000, burn_in=200))
        assert rows == [",".join(str(v) for v in row)
                        for row in ob.scan_rows(result)]

    def test_command_returns_outputs_without_writing(self, tmp_path,
                                                     monkeypatch):
        cfg = parse_config(open(write_config(tmp_path, "iterate: {n: 5}\n"))
                           .read())
        monkeypatch.chdir(tmp_path)
        outputs = cli.cmd_iterate(cfg, 0)
        assert list(outputs) == ["orbit.csv", "orbit.svg"]
        header, rows = outputs["orbit.csv"]
        assert header == ("iterate", "x", "y") and len(rows) == 6
        assert outputs["orbit.svg"].startswith("<svg")
        assert sorted(os.listdir(tmp_path)) == ["run.yaml"]

    @pytest.mark.parametrize("y0, escaped_at", [(1e-3, None), (-0.9, 0)])
    def test_lyapunov_reports_escape(self, tmp_path, y0, escaped_at):
        cfgp = write_config(tmp_path,
                            f"lyapunov: {{n: 200, burn_in: 10, y0: {y0}}}\n")
        out = str(tmp_path / "out")
        assert cli.main(["lyapunov", "--config", cfgp, "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "lyapunov.json")))
        assert doc["escaped_at"] == escaped_at
        assert doc["inconclusive"] is (escaped_at is not None)

    def test_superstable_emits_block(self, tmp_path):
        cfgp = write_config(
            tmp_path, f"superstable: {{a_window: [{-2 * math.pi}, 0.0]}}\n")
        out = str(tmp_path / "out")
        assert cli.main(["superstable", "--config", cfgp, "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "superstable.json")))
        assert len(doc["orbits"]) >= 1
        first = doc["orbits"][0]
        assert first["residual"] <= 1e-10
        assert len(first["lambdas"]) == 8

    def test_audit_validates_against_schema(self, tmp_path):
        if jsonschema is None:
            pytest.skip("jsonschema not installed")
        cfgp = write_config(tmp_path, "audit: {n_a: 8}\n")
        out = str(tmp_path / "out")
        assert cli.main(["audit", "--config", cfgp, "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "audit.json")))
        jsonschema.validate(doc, schema("audit.schema.json"))

    def test_misiurewicz_validates_against_schema(self, tmp_path):
        if jsonschema is None:
            pytest.skip("jsonschema not installed")
        cfgp = write_config(tmp_path, "misiurewicz: {a: 0.0}\n")
        out = str(tmp_path / "out")
        assert cli.main(["misiurewicz", "--config", cfgp, "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "certificate.json")))
        jsonschema.validate(doc, schema("certificate.schema.json"))

    def test_exit_code_validation_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("model: {c1: 1.0}\n")
        assert cli.main(["iterate", "--config", str(path),
                         "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command, extra, lam", [
        ("rotation", "rotation: {mode: annulus}\n", 0.0),
        ("superstable", "superstable: {period: 3}\n", 1e-3),
        ("misiurewicz", "misiurewicz: {horizon: 0}\n", 1e-3),
        ("scan", "scan: {lambda_grid: 0.001, k_omega_grid: [5.0]}\n", 1e-3),
        ("scan", "scan: {lambda_grid: [0.001], k_omega_grid: [5.0], "
                 "n_iter: 0}\n", 1e-3),
        ("audit", "audit: {thresholds: 5}\n", 1e-3),
        ("audit", "audit: {a_window: [1]}\n", 1e-3),
        ("superstable", "superstable: {a_window: 5}\n", 1e-3),
        ("lyapunov", "lyapunov: {n: 100, burn_in: -5}\n", 1e-3),
        ("lyapunov", "lyapunov: {cadence: 0}\n", 1e-3),
        ("iterate", "iterate: {n: -1}\n", 1e-3),
    ])
    def test_exit_code_rejected_option_value(self, tmp_path, capsys,
                                             command, extra, lam):
        cfgp = write_config(tmp_path, extra, lam=lam)
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfgp, "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_exit_code_computation_failure_writes_nothing(self, tmp_path,
                                                         capsys):
        # at lambda = 0.9 every annulus seed escapes
        cfgp = write_config(tmp_path, "rotation: {mode: annulus}\n", lam=0.9)
        out = tmp_path / "o"
        assert cli.main(["rotation", "--config", cfgp, "--out", str(out)]) == 2
        assert ("computation failed: all rotation seeds escaped"
                in capsys.readouterr().err)
        assert not any(out.iterdir())

    def test_exit_code_missing_scan_grids(self, tmp_path):
        cfgp = write_config(tmp_path)
        assert cli.main(["scan", "--config", cfgp,
                         "--out", str(tmp_path / "o")]) == 1

    def test_env_var_output_override(self, tmp_path, monkeypatch):
        cfgp = write_config(tmp_path, "iterate: {n: 5, plot: false}\n")
        target = tmp_path / "env_out"
        monkeypatch.setenv("BYKOVLAB_OUT", str(target))
        assert cli.main(["iterate", "--config", cfgp,
                         "--out", str(tmp_path / "ignored")]) == 0
        assert (target / "orbit.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        extra = ("scan:\n"
                 "  lambda_grid: [0.0001, 0.001]\n"
                 "  k_omega_grid: [0.1, 8.0]\n"
                 "  n_iter: 2000\n  burn_in: 200\n")
        cfgp = write_config(tmp_path, extra)
        outs = []
        for name, threads in (("o1", "1"), ("o2", "3"), ("o3", "1")):
            out = str(tmp_path / name)
            assert cli.main(["scan", "--config", cfgp, "--out", out,
                             "--threads", threads]) == 0
            outs.append(out)
        blobs = [open(os.path.join(o, "scan.csv"), "rb").read()
                 for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]
        svgs = [open(os.path.join(o, "regime_map.svg"), "rb").read()
                for o in outs]
        assert svgs[0] == svgs[1] == svgs[2]
