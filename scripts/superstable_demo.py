#!/usr/bin/env python3
"""Superstable period-2 orbits of the circle family and their 2D shadows.

Finds parameters a* where the second iterate of the singular-limit family
fixes a critical point, pulls each a* back to the unfolding-parameter
sequence lambda_n = exp((a* - 2*pi*n) / K_omega), and confirms in the full
two-dimensional return map that lambda_1 carries an attracting period-2
orbit with near-zero multipliers.

Usage:
    python scripts/superstable_demo.py [--k-omega K] [--period P]
"""

import argparse
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bykovlab import circlemap as cm
from bykovlab.model import (CylinderPoint, EscapeError, jac_return,
                            reference_params, reference_perturbation,
                            return_map)


def confirm_2d(params, pert, lam, c, period=2, n_settle=400):
    """Iterate the 2D map at lambda and measure the cycle multipliers.

    Returns None when the orbit leaves the return domain.
    """
    params = params.with_lambda(lam)
    p = CylinderPoint(float(c), lam)
    try:
        for _ in range(n_settle):
            p = return_map(p, params, pert)
        cycle = [p]
        for _ in range(period - 1):
            cycle.append(return_map(cycle[-1], params, pert))
        closure = return_map(cycle[-1], params, pert)
    except EscapeError:
        return None
    gap = abs(closure.x - cycle[0].x) + abs(closure.y - cycle[0].y)
    jac = np.eye(2)
    for q in cycle:
        jac = jac_return(q, params, pert) @ jac
    mults = np.abs(np.linalg.eigvals(jac))
    return cycle, gap, sorted(float(m) for m in mults)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--k-omega", type=float, default=5.0)
    ap.add_argument("--period", type=int, default=2)
    args = ap.parse_args()

    base = reference_params().with_k_omega(args.k_omega)
    pert = reference_perturbation()
    family = cm.family_from_model(base, pert)

    # search in the window below zero so that the n=1 pullback
    # lambda_1 = exp((a* - 2*pi)/K) is already small enough to stay in
    # the absorbing annulus
    roots = cm.superstable_search(family, args.period,
                                  a_window=(-2.0 * math.pi, 0.0))
    print(f"K_omega={args.k_omega:g}: {len(roots)} superstable "
          f"period-{args.period} parameters in [-2*pi, 0)")
    confirmed = []
    for s in roots:
        lam1 = s.lambdas[0]
        print(f"\na* = {s.a_star:+.10f}  c = {s.critical_point:.10f}  "
              f"|h^p(c)-c| = {s.residual:.2e}  |(h^p)'(c)| = {s.deriv_residual:.2e}")
        print("  pullbacks:", "  ".join(f"{l:.3e}" for l in s.lambdas[:4]))
        checked = confirm_2d(base, pert, lam1, s.critical_point, args.period)
        if checked is None:
            print(f"  2D check at lambda_1={lam1:.6f}: orbit escaped the "
                  "return domain, not confirmed")
            continue
        cycle, gap, mults = checked
        print(f"  2D check at lambda_1={lam1:.6f}: cycle gap {gap:.2e}, "
              f"multipliers {mults[0]:.3e}, {mults[1]:.3e}")
        if gap < 1e-8 and mults[1] < 0.1:
            confirmed.append(s.a_star)
    # not every pullback lands in the sink's basin at n=1; at least one does
    print(f"\nconfirmed attracting period-{args.period} cycles at lambda_1: "
          f"{len(confirmed)} (a* = {['%.6f' % a for a in confirmed]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
