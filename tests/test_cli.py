import importlib.util
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from bykovlab import circlemap as cm
from bykovlab import cli, config
from bykovlab import orbits as ob
from bykovlab.config import ConfigError, parse_config
from bykovlab.model import TWO_PI, CylinderPoint

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


SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


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
        # a top-level `plot` is unknown too: only the per-command one is read
        for extra in ("bogus: 1\n", "plot: false\n"):
            with pytest.raises(ConfigError):
                parse_config(BASE_CONFIG.format(omega="1.0", lam="0.001")
                             + extra)

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

    @pytest.mark.parametrize("old, new, key", [
        ("lambda: 0.001", "lambda: [1]", "model.lambda"),
        ("seed: 0", "seed: 1.5", "seed"),
        ("seed: 0", "seed: [1]", "seed"),
        ("phi2: {family: offset_sine}",
         "phi2: {family: offset_sine}\n  epsilon: [1]",
         "perturbation.epsilon"),
        ("phi1: {family: cosine}", "phi1: {family: cosine, amplitude: 'big'}",
         "perturbation.phi1.amplitude"),
        ("phi2: {family: offset_sine}",
         "phi2: {trig: {constant: 1.1, terms: 5}}",
         "perturbation.phi2.trig.terms"),
        ("phi2: {family: offset_sine}",
         "phi2: {trig: {constant: 1.1, terms: [[1.5, 0.0, 1.0]]}}",
         "perturbation.phi2.trig.terms"),
        ("seed: 0", "seed: 0\niterate: {n: 2.7}", "iterate.n"),
        ("seed: 0", "seed: 0\niterate: {n: true}", "iterate.n"),
        ("seed: 0", "seed: 0\niterate: {plot: 'no'}", "iterate.plot"),
        ("seed: 0", "seed: 0\nscan: {n_iter: foo}", "scan.n_iter"),
        ("seed: 0", "seed: 0\nscan: {bogus: 1}", "scan: unknown keys"),
        ("seed: 0", "seed: 0\naudit: {thresholds: {h1_ratio_cap: 'x'}}",
         "audit: unknown keys ['thresholds']"),
        ("seed: 0", "seed: 0\nscan: {chi_thresh: 0.1}",
         "scan: unknown keys ['chi_thresh']"),
        ("seed: 0", "seed: 0\nscan: {curve_thresh: 0.1}",
         "scan: unknown keys ['curve_thresh']"),
    ])
    def test_bad_value_names_its_key(self, old, new, key):
        text = BASE_CONFIG.format(omega="1.0", lam="0.001")
        assert old in text
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(text.replace(old, new))

    def test_values_converted_at_load(self):
        # PyYAML reads 1e-4 and 1.0e5 as strings
        cfg = parse_config(BASE_CONFIG.format(omega="1.0", lam="0.001")
                           + "scan: {lambda_grid: [1e-4], n_iter: 1.0e5}\n")
        assert cfg.options["scan"] == {"lambda_grid": (1e-4,),
                                       "n_iter": 100_000}
        assert type(cfg.options["scan"]["n_iter"]) is int
        assert cfg.options["iterate"] == {}

    def test_invalid_perturbation_rejected(self):
        text = BASE_CONFIG.format(omega="1.0", lam="0.001").replace(
            "phi2: {family: offset_sine}",
            "phi2: {family: offset_sine, offset: 0.2}")
        with pytest.raises(Exception):
            parse_config(text)


def _perfbench_configs() -> dict:
    """The YAML of each perfbench workload's first input variant."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {name: workloads.config_yaml(name, 0)
            for name in workloads.WORKLOADS}


CONFIG_TEXTS = {**{path.name: path.read_text(encoding="utf-8")
                   for path in Path(SCRIPTS).glob("*.yaml")},
                **_perfbench_configs()}
BACKENDS = {"python": (yaml.SafeLoader, yaml.SafeDumper)}
if yaml.__with_libyaml__:  # CSafeLoader and CSafeDumper exist only then
    BACKENDS["libyaml"] = (yaml.CSafeLoader, yaml.CSafeDumper)


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="PyYAML built without libyaml")
class TestYamlBackends:
    """libyaml and pure-Python PyYAML give one document, one `raw` text and
    one sha256 per config, so provenance does not depend on the build."""

    def test_libyaml_is_used(self):
        assert (config.LOADER, config.DUMPER) == BACKENDS["libyaml"]

    @pytest.mark.parametrize("name", sorted(CONFIG_TEXTS))
    def test_same_document_raw_and_sha(self, monkeypatch, name):
        text = CONFIG_TEXTS[name]
        docs, cfgs = [], []
        for loader, dumper in BACKENDS.values():
            docs.append(repr(yaml.load(text, Loader=loader)))
            monkeypatch.setattr(config, "LOADER", loader)
            monkeypatch.setattr(config, "DUMPER", dumper)
            cfgs.append(parse_config(text))
        assert docs[0] == docs[1]
        assert cfgs[0].raw == cfgs[1].raw
        assert cfgs[0].sha256 == cfgs[1].sha256

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("text", [
        "model: {c1: [1.0\n", "model:\n  c1: 1\n c2: 2\n", "a: b: c\n",
        "model: {c1: 1.0}}\n"],
        ids=["unclosed", "dedent", "nested", "brace"])
    def test_malformed_is_config_error(self, monkeypatch, backend, text):
        monkeypatch.setattr(config, "LOADER", BACKENDS[backend][0])
        with pytest.raises(ConfigError, match="YAML parse error"):
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

    def test_scan_labels_by_the_library_curve_threshold(self, tmp_path):
        # at (lambda, K) = (0.1, 0.3) the orbit thickness lies between 5e-3
        # and CURVE_THRESH = 0.02, so the label shows which curve threshold
        # was used: the scan has none of its own
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
        cell = result.cells[0][1]
        assert (cell.lam, cell.k_omega, cell.label) == (0.1, 0.3,
                                                        "InvariantCurve")
        assert 5e-3 < cell.thickness < ob.CURVE_THRESH

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

    @pytest.mark.parametrize("command, extra", [
        ("lyapunov", "lyapunov: {n: 200, burn_in: 10, y0: -0.9}\n"),
        ("superstable", None),
    ])
    def test_json_is_strict(self, tmp_path, command, extra):
        """Non-finite values are written as null, never as NaN tokens."""
        cfgp = (os.path.join(SCRIPTS, "superstable.yaml") if extra is None
                else write_config(tmp_path, extra))
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfgp, "--out", str(out)]) == 0
        (path,) = out.glob("*.json")

        def reject(token):
            raise ValueError(f"non-finite JSON token {token}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        if command == "lyapunov":
            assert doc["chi1"] is None and doc["chi2"] is None
        else:
            cycles = [c for o in doc["orbits"] for c in o["cycles"]]
            assert any(c["escaped"] and c["gap"] is None for c in cycles)

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

    def test_superstable_cycles_match_library(self, tmp_path):
        """One 2D cycle check per pullback, the library's on the same inputs."""
        cfgp = write_config(
            tmp_path, f"superstable: {{a_window: [{-2 * math.pi}, 0.0], "
                      f"n_lambdas: 3}}\n")
        out = tmp_path / "out"
        assert cli.main(["superstable", "--config", cfgp,
                         "--out", str(out)]) == 0
        doc = json.load(open(out / "superstable.json"))
        cfg = parse_config(open(cfgp).read())
        for orbit in doc["orbits"]:
            assert len(orbit["cycles"]) == len(orbit["lambdas"]) == 3
            for lam, cycle in zip(orbit["lambdas"], orbit["cycles"]):
                want = ob.confirm_cycle(
                    cfg.params.with_lambda(lam), cfg.pert,
                    CylinderPoint(orbit["critical_point"], lam), 2)
                assert cycle["escaped"] is want.escaped
                if not want.escaped:
                    assert cycle["gap"] == want.gap
                    assert tuple(cycle["multipliers"]) == want.multipliers

    def test_singular_limit_writes_table(self, tmp_path):
        cfgp = write_config(tmp_path, "singular_limit: {n_min: 3, n_max: 5}\n")
        out = tmp_path / "out"
        assert cli.main(["singular-limit", "--config", cfgp,
                         "--out", str(out)]) == 0
        lines = [l.rstrip("\n") for l in open(out / "singular_limit.csv")
                 if not l.startswith("#")]
        assert lines[0] == ("n,lambda,value_err,d1_err,second_comp_err,"
                            "excluded,twist_offset")
        cfg = parse_config(open(cfgp).read())
        rows = cm.singular_limit_convergence(cfg.params, cfg.pert, 0.0,
                                             range(3, 6))
        assert lines[1:] == [
            ",".join((str(r.n), *(f"{v:.17g}" for v in (
                r.lam, r.value_err, r.d1_err, r.second_comp_err)),
                      str(r.excluded), f"{r.twist_offset:.17g}"))
            for r in rows]

    @pytest.mark.parametrize("mode", ["circle", "annulus"])
    def test_rotation_matches_library(self, tmp_path, mode):
        cfgp = write_config(tmp_path, f"rotation: {{mode: {mode}}}\n")
        out = tmp_path / "out"
        assert cli.main(["rotation", "--config", cfgp, "--out", str(out)]) == 0
        doc = json.load(open(out / "rotation.json"))
        cfg = parse_config(open(cfgp).read())
        if mode == "circle":
            ri = cm.rotation_interval(
                cm.family_from_model(cfg.params, cfg.pert), 0.0)
            want = (ri.rho_min, ri.rho_max, ri.error)
        else:
            seeds = [CylinderPoint(x, 1e-3) for x in
                     np.linspace(0.0, TWO_PI, 16, endpoint=False)]
            lo, hi = ob.rotation_set_2d(cfg.params, cfg.pert, seeds, 2000)
            want = (lo, hi, 1.0 / 2000)
        assert doc["mode"] == mode
        assert (doc["rho_min"], doc["rho_max"], doc["error"]) == want

    @pytest.mark.parametrize("mode", ["circle", "annulus"])
    def test_rotation_names_bad_seed_count(self, tmp_path, capsys, mode):
        cfgp = write_config(tmp_path, f"rotation: {{mode: {mode}, "
                                      "n_seeds: -1}\n")
        out = str(tmp_path / "out")
        assert cli.main(["rotation", "--config", cfgp, "--out", out]) == 1
        assert ("config error: need n_seeds >= 1, got n_seeds=-1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, extra, message", [
        ("audit", "audit: {n_a: 0}\n", "need n_a >= 1, got n_a=0"),
        ("superstable", "superstable: {n_lambdas: 0}\n",
         "need n_lambdas >= 1, got n_lambdas=0"),
        ("misiurewicz", "misiurewicz: {n_seeds: -1}\n",
         "need n_seeds >= 1, got n_seeds=-1"),
        ("singular-limit", "singular_limit: {n_min: 5, n_max: 2}\n",
         "need 1 <= n_min <= n_max, got n_min=5, n_max=2"),
        # exp(-2*pi*n/K_omega) is 0.0 in floats from n = 593 at K_omega = 5
        ("superstable", "superstable: {n_lambdas: 600}\n",
         "lambda underflows to 0 at n=593, K_omega=5.0"),
        ("singular-limit", "singular_limit: {n_min: 100, n_max: 700}\n",
         "lambda underflows to 0 at n=593, K_omega=5.0"),
        # lambda_(0,n)^6 is subnormal from n = 94 at K_omega = 5 and 0.0
        # from n = 99
        ("singular-limit", "singular_limit: {n_min: 90, n_max: 121}\n",
         "height scale lambda^delta = 1.572876317092517e-308 is not a "
         "normal float at n=94, K_omega=5.0: need a smaller n"),
        ("singular-limit", "singular_limit: {n_min: 116, n_max: 121}\n",
         "height scale lambda^delta = 0.0 is not a normal float at n=116, "
         "K_omega=5.0: need a smaller n"),
    ])
    def test_bad_count_is_named(self, tmp_path, capsys, command, extra,
                                message):
        cfgp = write_config(tmp_path, extra)
        out = str(tmp_path / "out")
        assert cli.main([command, "--config", cfgp, "--out", out]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not os.path.exists(out) or not os.listdir(out)

    # omega = 0.17 is K_omega = 0.51, where H2/H3 cuts its n range short
    @pytest.mark.parametrize("omega", [5.0 / 3.0, 0.17])
    def test_audit_validates_against_schema(self, tmp_path, omega):
        if jsonschema is None:
            pytest.skip("jsonschema not installed")
        cfgp = write_config(tmp_path, "audit: {n_a: 8}\n", omega=omega)
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
        ("superstable", "superstable: {period: [2]}\n", 1e-3),
        ("scan", "scan: {lambda_grid: [0.001], k_omega_grid: [5.0], "
                 "n_iter: [5]}\n", 1e-3),
        ("misiurewicz", "misiurewicz: {a: [1]}\n", 1e-3),
        ("rotation", "rotation: {mode: annulus, n_iter: 0}\n", 1e-3),
        ("rotation", "rotation: {n_seeds: 0}\n", 1e-3),
        ("rotation", "rotation: {mode: annulus, n_seeds: 0}\n", 1e-3),
        ("iterate", "iterate: {n: 2.7}\n", 1e-3),
        ("iterate", "iterate: {n: true}\n", 1e-3),
        ("iterate", "iterate: {plot: 'no'}\n", 1e-3),
        ("lyapunov", "scan: {bogus: 1, n_iter: foo}\n", 1e-3),
        ("lyapunov", "audit: {thresholds: {h1_ratio_cap: 'x'}}\n", 1e-3),
        ("audit", "audit: {thresholds: {h4_horizon: 2.5}}\n", 1e-3),
        # the verdict and label gates are constants, not options
        ("audit", "audit: {thresholds: {h1_ratio_cap: 1.0e+30}}\n", 1e-3),
        ("scan", "scan: {lambda_grid: [0.001], k_omega_grid: [5.0], "
                 "chi_thresh: 0.1}\n", 1e-3),
        ("scan", "scan: {lambda_grid: [0.001], k_omega_grid: [5.0], "
                 "curve_thresh: 0.1}\n", 1e-3),
        ("rotation", "rotation: {n_seeds: -1}\n", 1e-3),
        ("rotation", "rotation: {mode: annulus, n_seeds: -1}\n", 1e-3),
        # a is a parameter of the circle family; annulus mode has none
        ("rotation", "rotation: {mode: annulus, a: 2.5, n_iter: 1000, "
                     "n_seeds: 4}\n", 1e-3),
        # counts below their least meaningful value
        ("audit", "audit: {n_a: 0}\n", 1e-3),
        ("superstable", "superstable: {n_lambdas: 0}\n", 1e-3),
        ("misiurewicz", "misiurewicz: {n_seeds: 0}\n", 1e-3),
        ("misiurewicz", "misiurewicz: {n_seeds: -1}\n", 1e-3),
        ("singular-limit", "singular_limit: {n_min: 0}\n", 1e-3),
        ("singular-limit", "singular_limit: {n_min: 5, n_max: 2}\n", 1e-3),
        # H1 samples lambda log-uniformly in 0 < low <= high
        ("audit", "audit: {lambda_range: [0.0, 0.01]}\n", 1e-3),
        ("audit", "audit: {lambda_range: [-0.001, 0.01]}\n", 1e-3),
        ("audit", "audit: {lambda_range: [0.01, 0.001]}\n", 1e-3),
    ])
    def test_exit_code_rejected_option_value(self, tmp_path, capsys,
                                             command, extra, lam):
        cfgp = write_config(tmp_path, extra, lam=lam)
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfgp, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        if "lambda_range" in extra:  # the key and both values as given
            values = extra[extra.index("["):extra.index("]") + 1]
            assert "lambda_range" in err and values in err
        assert not out.exists() or not any(out.iterdir())

    def test_exit_code_computation_failure_writes_nothing(self, tmp_path,
                                                         capsys):
        # at lambda = 0.9 every annulus seed escapes
        cfgp = write_config(tmp_path, "rotation: {mode: annulus}\n", lam=0.9)
        out = tmp_path / "o"
        assert cli.main(["rotation", "--config", cfgp, "--out", str(out)]) == 2
        assert ("computation failed: all rotation seeds escaped"
                in capsys.readouterr().err)
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", [None, "scna", "Scan",
                                         "singular_limit"])
    def test_unknown_or_missing_command_exits_2(self, tmp_path, capsys,
                                                command):
        """argparse rejects the command before any config is read."""
        cfgp = write_config(tmp_path, "iterate: {n: 5}\n")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.main([command] * (command is not None)
                     + ["--config", cfgp, "--out", str(out)])
        assert exc.value.code == 2
        assert "usage: bykovlab" in capsys.readouterr().err
        assert not out.exists()

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
