"""Self-tests of the benchmark: span arithmetic, output check, tracer hygiene.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
from tracing import Tracer, bykovlab_modules, self_times  # noqa: E402

from bykovlab import cli  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return check.load_references()


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children a [1, 4], b [3, 6] (overlaps a) and
    # c [9, 12] (runs past root); a has child d [2, 3].
    start = [0.0, 1.0, 2.0, 3.0, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    got = self_times(start, end, parent)
    # root: 10 - |[1, 6] u [9, 10]| = 4; a: 3 - 1; d, b, c: no children
    assert list(got) == [4.0, 2.0, 1.0, 3.0, 3.0]


def _write_scan(out: Path, cells, ordered) -> None:
    from bykovlab.orbits import SCAN_CSV_COLUMNS
    out.mkdir(parents=True, exist_ok=True)
    lines = ["# bykovlab test", ",".join(SCAN_CSV_COLUMNS)]
    for lam, k, label, period in cells:
        lines.append(f"{lam!r},{k!r},{label},0.1,-1.0,"
                     f"{'' if period is None else period},0.5,0.5,0")
    (out / "scan.csv").write_text("\n".join(lines) + "\n")
    (out / "boundaries.json").write_text(json.dumps({"ordered": ordered}))


def test_check_flags_flipped_scan_label(tmp_path, refs):
    ref = refs["scan_grid"]
    _write_scan(tmp_path, ref["cells"], ref["ordered"])
    assert check.check_outputs("scan_grid", str(tmp_path), refs, 0) == []

    cells = copy.deepcopy(ref["cells"])
    cells[0][2] = ("Escaped" if cells[0][2] != "Escaped"
                   else "InvariantCurve")
    _write_scan(tmp_path, cells, ref["ordered"])
    assert check.check_outputs("scan_grid", str(tmp_path), refs, 0)

    _write_scan(tmp_path, ref["cells"], not ref["ordered"])
    assert check.check_outputs("scan_grid", str(tmp_path), refs, 0)


def _write_audit(out: Path, statuses: dict, passing: int) -> None:
    verdicts = [{"name": name, "status": status,
                 "evidence": {"passing": [{"a": 0.1 * i}
                                          for i in range(passing)]}
                 if name == "H4" else {}}
                for name, status in statuses.items()]
    (out / "audit.json").write_text(json.dumps({"verdicts": verdicts}))


def test_check_flags_flipped_audit_status(tmp_path, refs):
    ref = refs["audit_k5"]["3"]
    _write_audit(tmp_path, ref["statuses"], ref["h4_passing"])
    assert check.check_outputs("audit_k5", str(tmp_path), refs, 3) == []

    flipped = dict(ref["statuses"])
    flipped["H1"] = "PASS" if flipped["H1"] != "PASS" else "FAIL"
    _write_audit(tmp_path, flipped, ref["h4_passing"])
    assert check.check_outputs("audit_k5", str(tmp_path), refs, 3)

    _write_audit(tmp_path, ref["statuses"], ref["h4_passing"] + 1)
    assert check.check_outputs("audit_k5", str(tmp_path), refs, 3)


def test_check_flags_lyapunov_outside_tolerance(refs):
    ref = refs["lyapunov_long"]["0"]
    tol = refs["lyapunov_long"]["chi1_tolerance"]
    ok = dict(ref, chi1=ref["chi1"] + 0.5 * tol)
    assert check.compare("lyapunov_long", ok, refs, 0) == []
    for bad in (dict(ref, chi1=ref["chi1"] + 2.0 * tol),
                dict(ref, inconclusive=True),
                dict(ref, det_consistency=1e-2),
                dict(ref, det_consistency=None)):
        assert check.compare("lyapunov_long", bad, refs, 0)


def _bindings() -> dict:
    """Every name bound in a bykovlab module or on one of its classes."""
    seen = {}
    for mod in bykovlab_modules():
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    seen[(mod.__name__, attr, cattr)] = cvalue
    return seen


LYAP_CONFIG = """\
model: {c1: 2.0, e1: 1.0, omega1: 1.6666666666666667, c2: 3.0, e2: 1.0,
        omega2: 1.6666666666666667, xi: 0.0, lambda: 0.001}
perturbation: {phi1: {family: cosine}, phi2: {family: offset_sine}}
lyapunov: {n: 200, burn_in: 10}
"""


def test_traced_run_restores_bindings(tmp_path):
    import bykovlab.model as model
    import bykovlab.orbits as orbits
    config = tmp_path / "run.yaml"
    config.write_text(LYAP_CONFIG)
    before = _bindings()
    original = model.return_map

    tracer = Tracer()
    tracer.install()
    try:
        assert orbits.return_map is model.return_map is not original
        mark = tracer.mark()
        rc = cli.main(["lyapunov", "--config", str(config),
                       "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    summary = tracer.summary(mark)

    assert rc == 0
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert summary["model.return_map.calls"] == 210
    assert summary["model.jac_return.calls"] == 200
    assert summary["orbits.lyapunov.steps"] == 210
    assert summary["config.load_config.total_s"] > 0.0
    assert summary["model.trigpoly.calls"] > 0


def test_install_failure_leaves_bindings_untouched(monkeypatch):
    import tracing
    before = _bindings()
    monkeypatch.setattr(tracing, "COUNTED",
                        tracing.COUNTED + (("model", "TrigPoly", "missing",
                                            "model.trigpoly", 1),))
    with pytest.raises(KeyError):
        Tracer().install()
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
