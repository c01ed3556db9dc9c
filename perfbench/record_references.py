"""Record the reference outputs that check.py compares against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_references.py

It runs every workload's CLI call once per input variant, stores the parsed
outputs in perfbench/references.json, and derives the chi1 tolerance of
lyapunov_long from start points moved by a few ULP (see CHI1_TOLERANCE_REASON).
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import check
from workloads import (LYAP_BURN_IN, LYAP_K, LYAP_LAMBDA, LYAP_N, VARIANTS,
                       cli_argv, config_yaml, lyapunov_x0)

ROOT = Path(__file__).resolve().parent.parent
ULP_SHIFTS = (1, -1, 4, -4)  # start-angle shifts in units of the angle's ULP
CHI1_SAFETY = 100.0
CHI1_FLOOR = 1e-9
CHI1_TOLERANCE_REASON = (
    f"chi1 may differ from the reference by at most {CHI1_SAFETY:g} x the "
    "largest change seen when the start angle moves by 1 or 4 ULP (over all "
    f"variants), and never less than {CHI1_FLOOR:g}. A change of the "
    "arithmetic at the ULP level moves chi1 no more than such a shift; a "
    "wrong map, Jacobian or QR step moves it far more. At K=5, lambda=1e-3 "
    "every start angle reaches the same periodic sink within the burn-in, "
    "so ULP shifts leave chi1 bit-identical and the floor applies")


def run_cli(cli, workload: str, variant: int, work: Path) -> dict:
    config = work / "config.yaml"
    config.write_text(config_yaml(workload, variant), encoding="utf-8")
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    rc = cli.main(cli_argv(workload, str(config), str(out)))
    if rc != 0:
        raise SystemExit(f"{workload} variant {variant}: exit status {rc}")
    return check.PARSERS[workload](str(out))


def chi1_shift(ob, params, pert, variant: int, chi1: float) -> float:
    """Largest chi1 change when the start angle moves by a few ULP."""
    from bykovlab.model import CylinderPoint
    x0 = lyapunov_x0(variant)
    worst = 0.0
    for k in ULP_SHIFTS:
        p0 = CylinderPoint(x0 + k * math.ulp(x0), LYAP_LAMBDA)
        est = ob.lyapunov(params, pert, p0, LYAP_N, burn_in=LYAP_BURN_IN)
        worst = max(worst, abs(est.chi1 - chi1))
    return worst


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from bykovlab import cli, orbits as ob
    from bykovlab.model import reference_params, reference_perturbation
    params = reference_params(omega=LYAP_K / 3.0).with_lambda(LYAP_LAMBDA)
    pert = reference_perturbation()

    refs = {"variants": VARIANTS, "audit_k5": {}, "lyapunov_long": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        scan = [run_cli(cli, "scan_grid", v, work) for v in (0, 1)]
        if scan[0] != scan[1]:
            raise SystemExit("scan_grid outputs depend on the seed")
        refs["scan_grid"] = scan[0]
        worst = 0.0
        for v in range(VARIANTS):
            refs["audit_k5"][str(v)] = run_cli(cli, "audit_k5", v, work)
            lyap = run_cli(cli, "lyapunov_long", v, work)
            refs["lyapunov_long"][str(v)] = lyap
            worst = max(worst, chi1_shift(ob, params, pert, v, lyap["chi1"]))
            print(f"variant {v}: audit {refs['audit_k5'][str(v)]}, "
                  f"chi1 {lyap['chi1']!r}, ULP shift {worst:.3g}", flush=True)
    refs["lyapunov_long"]["chi1_ulp_shift"] = worst
    refs["lyapunov_long"]["chi1_tolerance"] = max(CHI1_SAFETY * worst,
                                                  CHI1_FLOOR)
    refs["lyapunov_long"]["chi1_tolerance_reason"] = CHI1_TOLERANCE_REASON
    Path(check.REFERENCES).write_text(json.dumps(refs, indent=1) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
