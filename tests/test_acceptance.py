"""End-to-end acceptance checks.

One test per acceptance criterion; each prints a single PASS/FAIL line with
the measured figure of merit before asserting, so a full run reads as a
twelve-line report.
"""

import math
import os
import time

import numpy as np
import pytest

import scalar_reference as ref
from bykovlab import audit as au
from bykovlab import circlemap as cm
from bykovlab import cli
from bykovlab import model as md
from bykovlab import orbits as ob
from bykovlab.model import CylinderPoint, TWO_PI, wrap_angle


@pytest.fixture
def report(capsys):
    """One printed pass/fail line per criterion, past pytest's capture."""
    def _line(n: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}",
                  flush=True)
        assert ok, detail
    return _line


def _circ_err(a: float, b: float) -> float:
    d = abs(wrap_angle(a) - wrap_angle(b))
    return min(d, TWO_PI - d)


def test_criterion_01_composition_identity(pert, report):
    params = md.reference_params(lam=0.01, xi=0.4)

    def sweep(n_points, seed=1):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_points):
            p = CylinderPoint(float(rng.uniform(0, TWO_PI)),
                              float(rng.uniform(1e-3, 0.9)))
            r, phi = ref.local_map_o1(p, params)
            composed = ref.local_map_o2(r, phi, params)
            direct = ref.eta(p, params)
            worst = max(worst, _circ_err(composed.x, direct.x),
                        abs(composed.y - direct.y))
            q = ref.psi_21(p, params, pert)
            if q.y > 0.0 and q.y ** params.delta <= 1.0:
                full = md.return_map(p, params, pert)
                via = ref.eta(q, params)
                worst = max(worst, _circ_err(full.x, via.x),
                            abs(full.y - via.y))
        return worst

    sweep(100)  # warm-up outside the timed window
    t0 = time.perf_counter()
    worst = sweep(10_000)
    dt = time.perf_counter() - t0
    report(1, worst <= 1e-14 and dt < 1.0,
            f"composition identity max err {worst:.2e} in {dt:.2f}s")


def test_criterion_02_reference_constants(report):
    params = md.reference_params()
    got = (params.delta1, params.delta2, params.delta, params.k_omega)
    report(2, got == (2.0, 3.0, 6.0, 3.0),
            f"reference constants (d1, d2, d, K) = {got}")


def test_criterion_03_lambda_zero_closed_form(ref_params, pert, report):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10_000):
        x = float(rng.uniform(0, TWO_PI))
        y = float(rng.uniform(1e-3, 1.0))
        got = md.return_map(CylinderPoint(x, y), ref_params, pert)
        want_x = wrap_angle(x + ref_params.xi
                            - ref_params.k_omega * math.log(y))
        want_y = y ** ref_params.delta
        worst = max(worst, _circ_err(got.x, want_x), abs(got.y - want_y))
    report(3, worst <= 1e-13, f"lambda=0 closed form max err {worst:.2e}")


def test_criterion_04_singular_limit_convergence(ref_params, pert, report):
    t0 = time.perf_counter()
    ok = True
    worst_margin = math.inf
    for a in (0.0, 1.0, math.pi):
        rows = cm.singular_limit_convergence(ref_params, pert, a,
                                             range(4, 13))
        for key in ("value_err", "d1_err"):
            seq = [getattr(r, key) for r in rows]
            ok = ok and all(b < c for c, b in zip(seq, seq[1:]))
        for r in rows:
            bound = r.lam ** (ref_params.delta - 1.0) * 2.1 ** 6
            ok = ok and r.second_comp_err <= bound * (1.0 + 1e-12)
            worst_margin = min(worst_margin,
                               bound / max(r.second_comp_err, 1e-300))
    dt = time.perf_counter() - t0
    report(4, ok and dt < 10.0,
            f"singular-limit errors monotone for a in {{0, 1, pi}}, "
            f"second-component bound margin >= {worst_margin:.3f}, {dt:.1f}s")


def test_criterion_05_lambda_sequence_identity(report):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        k = float(rng.uniform(0.5, 10.0))
        a = float(rng.uniform(0.0, TWO_PI))
        n = int(rng.integers(1, 40))
        _, lam_an = cm.lambda_sequences(k, n, a)
        twist = cm.twist_of_lambda(k, lam_an)
        worst = max(worst, _circ_err(twist, a))
    report(5, worst <= 1e-12,
            f"twist(lambda_(a,n)) = a (mod 2pi), max err {worst:.2e}")


def test_criterion_06_jacobian_factorization(pert, report):
    params = md.reference_params(lam=0.01, xi=0.4)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        p = CylinderPoint(float(rng.uniform(0, TWO_PI)),
                          float(rng.uniform(0.05, 0.9)))
        det_analytic = md.det_jac_return(p, params, pert)
        fd = ref.finite_difference_jacobian(
            lambda q: md.return_map(CylinderPoint(*q), params, pert), p)
        det_fd = float(np.linalg.det(fd))
        worst = max(worst, abs(det_fd - det_analytic) / abs(det_analytic))
    report(6, worst <= 1e-6,
            f"det factorization vs finite differences, max rel err {worst:.2e}")


def test_criterion_07_critical_set_oracle(family_k5, family_k03, pert, report):
    def brute_force(family):
        n = 2 ** 16
        xs = np.linspace(0.0, TWO_PI, n, endpoint=False)
        d = np.asarray(family.deriv(xs))
        flips = np.nonzero(np.sign(d) != np.sign(np.roll(d, -1)))[0]
        return xs[flips]

    empty = cm.critical_points(family_k03)
    two = cm.critical_points(family_k5)
    oracle_empty = brute_force(family_k03)
    oracle_two = brute_force(family_k5)
    ok = (len(empty.points) == 0 and len(oracle_empty) == 0
          and len(two.points) == 2 and len(oracle_two) == 2)
    gap = math.inf
    if ok:
        spacing = TWO_PI / 2 ** 16
        gap = max(min(_circ_err(c, o) for o in oracle_two)
                  for c in two.points)
        ok = gap <= spacing
        ok = ok and all(abs(s) > 1e-8 for s in two.second_derivs)
    report(7, ok,
            f"critical set empty at K=0.3, two Morse points at K=5 "
            f"(grid-oracle gap {gap:.2e})")


def test_criterion_08_superstable_pipeline(params_k5, pert, family_k5, report):
    t0 = time.perf_counter()
    roots = cm.superstable_search(family_k5, 2, a_window=(-TWO_PI, 0.0))
    ok_1d = bool(roots) and all(s.residual <= 1e-10
                                and s.deriv_residual <= 1e-10 for s in roots)
    confirmed = {}
    for n in (2, 5):
        checks = [ob.confirm_cycle(params_k5.with_lambda(s.lambdas[n - 1]),
                                   pert, CylinderPoint(s.critical_point,
                                                       s.lambdas[n - 1]), 2)
                  for s in roots]
        confirmed[n] = sum(c.gap < 1e-10 and c.multipliers[-1] < 0.1
                           for c in checks)
    dt = time.perf_counter() - t0
    ok = ok_1d and 0 < confirmed[2] < confirmed[5] and dt < 30.0
    report(8, ok, f"superstable pipeline: {len(roots)} roots, 2D-confirmed "
                  f"sinks at n=2: {confirmed[2]}, n=5: {confirmed[5]}, "
                  f"{dt:.1f}s")


def test_criterion_09_regime_ordering(ref_params, pert, report):
    t0 = time.perf_counter()
    budget = ob.Budget(n_iter=100_000, burn_in=2000)
    labels = [c.label for c in ob.classify_batch(
        [1e-3] * 3, (0.1, 0.45, 15.0), ref_params, pert, budget)]
    ordering_ok = (labels[0] == "InvariantCurve"
                   and labels[1] in ("PeriodicSink", "TransientChaos")
                   and labels[2] == "StrangeAttractorCandidate")
    small_budget = ob.Budget(n_iter=20_000, burn_in=2000)
    result = ob.scan([1e-4, 1e-3], [0.1, 8.0], ref_params, pert, small_budget)
    dt = time.perf_counter() - t0
    report(9, ordering_ok and result.ordered and dt < 300.0,
            f"lambda=1e-3 column labels {labels}, "
            f"2D scan t2_hat <= t1_hat per column, {dt:.0f}s")


def test_criterion_10_lyapunov_harness(ref_params, params_k5, pert, report,
                                       monkeypatch):
    jac = ((2.0, 0.0), (0.0, 0.5))  # as jac_return gives its entries
    with monkeypatch.context() as mp:  # a synthetic map for one run
        mp.setattr(ob, "return_map",
                   lambda p, *_: CylinderPoint(wrap_angle(p.x + 0.7), p.y))
        mp.setattr(ob, "jac_return", lambda *_: jac)
        est = ob.lyapunov(ref_params, pert, CylinderPoint(0.1, 0.5), 4000,
                          burn_in=0)
    err = max(abs(est.chi1 - math.log(2.0)), abs(est.chi2 + math.log(2.0)))
    params = params_k5.with_lambda(1e-3)
    real = ob.lyapunov(params, pert, CylinderPoint(0.5, 1e-3), 100_000,
                       burn_in=2000)
    report(10, err <= 1e-10 and real.det_consistency is not None
            and real.det_consistency < 1e-2,
            f"diag(2, 1/2) recovered to {err:.2e}; model sum-vs-logdet "
            f"mismatch {real.det_consistency:.2e}")


def test_criterion_11_h7_arithmetic(report):
    lo = 3.0 * math.log(2.0)
    ok = (au.h7_accepts_lambda0(lo + 1e-12)
          and not au.h7_accepts_lambda0(lo - 1e-12))
    report(11, ok, "acceptance boundary exact at 3 ln 2 +- 1e-12")


def test_criterion_12_determinism(tmp_path, report):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "model:\n"
        "  c1: 2.0\n  e1: 1.0\n  omega1: 1.6666666666666667\n"
        "  c2: 3.0\n  e2: 1.0\n  omega2: 1.6666666666666667\n"
        "  xi: 0.0\n  lambda: 0.001\n"
        "perturbation:\n"
        "  phi1: {family: cosine}\n"
        "  phi2: {family: offset_sine}\n"
        "seed: 0\n"
        "scan:\n"
        "  lambda_grid: [0.0001, 0.001]\n"
        "  k_omega_grid: [0.1, 8.0]\n"
        "  n_iter: 2000\n  burn_in: 200\n"
        "audit: {n_a: 8}\n")
    blobs = {}
    for tag, threads in (("a", 1), ("b", 3), ("c", 1)):
        out = str(tmp_path / tag)
        assert cli.main(["scan", "--config", str(cfg), "--out", out,
                         "--threads", str(threads)]) == 0
        assert cli.main(["audit", "--config", str(cfg), "--out", out,
                         "--threads", str(threads)]) == 0
        blobs[tag] = tuple(
            open(os.path.join(out, name), "rb").read()
            for name in ("scan.csv", "regime_map.svg", "boundaries.json",
                         "audit.json"))
    ok = blobs["a"] == blobs["b"] == blobs["c"]
    report(12, ok, "scan + audit outputs byte-identical across three reruns, "
                    "one of them with the ignored --threads 3")
