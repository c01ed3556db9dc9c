"""Scalar references for the fast paths of `bykovlab`.

Four groups of references, each written as the plain definition:

- the factored return map: the local passages past each saddle-focus, their
  closed form `eta`, the perturbed global transition `psi_21`, their
  Jacobians, the factored determinant and a central finite-difference
  Jacobian.  `model._return_step` and `model.det_jac_return` are tested
  against them.
- loops that advance one circle-map orbit at a time with plain float calls
  of the family.  The array paths of `bykovlab.circlemap` must match them
  exactly.
- `audit_H1` as a loop over samples that calls `model.det_jac_return` once
  per sample, and over sorted image neighbours one pair at a time.
  `audit.audit_H1` takes every determinant from one `model.step_batch`
  call and compares all neighbours as arrays; it is tested against it.
- `classify_cell` as three separate one-orbit runs (iterate, lyapunov,
  rotation_set_2d) of the scalar kernel.  `orbits.classify_batch` follows
  one lockstep orbit per cell through `model.step_batch` and is tested
  against it: equal labels and periods, and equal exponents and rotation
  numbers where the orbit does not amplify the ULP differences between
  numpy's and math's log and power.
"""

import math

import numpy as np

from bykovlab import circlemap as cm
from bykovlab import model as md
from bykovlab.audit import HypothesisVerdict, _thresholds
from bykovlab.model import (TWO_PI, CylinderFunction, CylinderPoint,
                            EscapeError, ModelParams, Perturbation, TrigPoly,
                            wrap_angle)
from bykovlab.orbits import (LYAPUNOV_CAP, PERIOD_CAP, RECURRENCE_TOL,
                             ROTATION_CAP, Budget, RegimeCell, _detect_period,
                             _orbit_thickness, iterate, lyapunov,
                             rotation_set_2d)

# ---------------------------------------------------------------------------
# Factored return map
# ---------------------------------------------------------------------------


class TrappedError(ValueError):
    """Point lies on the wrong branch of a local map (y <= 0 or r <= 0)."""


def local_map_o1(p: CylinderPoint, params: ModelParams) -> tuple[float, float]:
    """Passage past the first saddle-focus: wall point -> disc point (r, phi)."""
    x, y = p
    if y <= 0.0:
        raise TrappedError(f"y={y}: trapped or wrong branch at the first focus")
    r = y ** params.delta1
    phi = x - (params.omega1 / params.e1) * math.log(y)
    return r, wrap_angle(phi)


def local_map_o2(r: float, phi: float, params: ModelParams) -> CylinderPoint:
    """Passage past the second saddle-focus: disc point -> wall point."""
    if r <= 0.0:
        raise TrappedError(f"r={r}: on the stable manifold of the second focus")
    x = phi - (params.omega2 / params.e2) * math.log(r)
    y = r ** params.delta2
    return CylinderPoint(wrap_angle(x), y)


def eta(p: CylinderPoint, params: ModelParams) -> CylinderPoint:
    """Closed form of the double passage: (x - K ln y mod 2pi, y^delta)."""
    x, y = p
    if y <= 0.0:
        raise TrappedError(f"y={y}: entered lower branch / trapped")
    return CylinderPoint(wrap_angle(x - params.k_omega * math.log(y)),
                         y ** params.delta)


def psi_21(p: CylinderPoint, params: ModelParams, pert: Perturbation) -> CylinderPoint:
    """Perturbed global transition (x, y) -> (x + xi + lam*Phi1, y + lam*Phi2)."""
    x, y = p
    lam = params.lam
    return CylinderPoint(wrap_angle(x + params.xi + lam * pert.phi1(x, y)),
                         y + lam * pert.phi2(x, y))


def _dx(f: CylinderFunction, x: float, y: float) -> float:
    """x-partial of P(x) + y*Q(x)."""
    if f.slope is None:
        return f.base.d1(x)
    return f.base.d1(x) + y * f.slope.d1(x)


def _dy(f: CylinderFunction, x: float, y: float) -> float:
    """y-partial of P(x) + y*Q(x)."""
    return 0.0 if f.slope is None else f.slope(x)


def jac_psi21(p, params: ModelParams, pert: Perturbation) -> np.ndarray:
    x, y = p
    lam = params.lam
    return np.array([
        [1.0 + lam * _dx(pert.phi1, x, y), lam * _dy(pert.phi1, x, y)],
        [lam * _dx(pert.phi2, x, y), 1.0 + lam * _dy(pert.phi2, x, y)],
    ])


def jac_eta(p, params: ModelParams) -> np.ndarray:
    _, y = p
    return np.array([
        [1.0, -params.k_omega / y],
        [0.0, params.delta * y ** (params.delta - 1.0)],
    ])


def det_jac_return(p, params: ModelParams, pert: Perturbation) -> float:
    """Determinant via the factorization delta*Y^(delta-1) * det(D psi_21)."""
    x, y = p
    lam = params.lam
    big_y = y + lam * pert.phi2(x, y)
    dpsi = ((1.0 + lam * _dx(pert.phi1, x, y)) * (1.0 + lam * _dy(pert.phi2, x, y))
            - lam * lam * _dy(pert.phi1, x, y) * _dx(pert.phi2, x, y))
    return params.delta * big_y ** (params.delta - 1.0) * dpsi


# Phi1 and Phi2 with y-dependent slopes and a second harmonic, so every
# table entry and partial derivative of the return-step kernel is nonzero;
# y + lam*Phi2 > 0 wherever y >= 0
SLOPED = Perturbation(
    phi1=CylinderFunction(TrigPoly(0.2, ((1, 1.0, 0.0), (2, 0.0, 0.4))),
                          slope=TrigPoly(0.0, ((2, 0.3, 0.1),))),
    phi2=CylinderFunction(TrigPoly(1.1, ((1, 0.0, 1.0),)),
                          slope=TrigPoly(0.05, ((1, 0.02, 0.0),))))


FD_STEP = 1e-6


def finite_difference_jacobian(fn, p, h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference Jacobian of a planar map.

    Angle components are compared on the circle, so the step may cross the
    branch cut of the mod-2pi reduction.
    """
    x, y = p

    def delta(pp, pm):
        dx = math.fmod(pp[0] - pm[0], TWO_PI)
        if dx < -math.pi:
            dx += TWO_PI
        elif dx > math.pi:
            dx -= TWO_PI
        return dx, pp[1] - pm[1]

    fx = delta(fn((x + h, y)), fn((x - h, y)))
    fy = delta(fn((x, y + h)), fn((x, y - h)))
    return np.array([
        [fx[0] / (2 * h), fy[0] / (2 * h)],
        [fx[1] / (2 * h), fy[1] / (2 * h)],
    ])


# ---------------------------------------------------------------------------
# Circle-map loops, one orbit at a time
# ---------------------------------------------------------------------------


def misiurewicz_check(family: cm.CircleMapFamily, a: float,
                      delta0: float = 0.05, horizon: int = 50,
                      n_seeds: int = 32,
                      seed: int = 0) -> cm.MisiurewiczCertificate:
    """One orbit at a time: the reference for `cm.misiurewicz_scan`."""
    if horizon < 1 or delta0 <= 0.0:
        raise ValueError("need horizon >= 1 and delta0 > 0")
    crit = family.critical_set
    prov = {"grid": cm.DEFAULT_GRID, "seeds": n_seeds,
            "tolerances": {"delta0": delta0, "root_tol": cm.ROOT_TOL,
                           "morse_tol": cm.MORSE_TOL}, "rng_seed": seed}
    xs = np.linspace(0.0, TWO_PI, cm.DEFAULT_GRID, endpoint=False)

    if crit.q == 0:
        lam0 = float(np.min(np.log(np.abs(family.deriv(xs)))))
        verdicts = [
            cm.Verdict("1a-nondegenerate-turns", True,
                       "vacuous: empty critical set"),
            cm.Verdict("1b-critical-orbit-avoidance", True, "vacuous"),
            cm.Verdict("2a-expansion", lam0 > 0.0, {"lambda0": lam0}),
            cm.Verdict("2b-return-expansion", lam0 > 0.0,
                       {"lambda0": lam0} if lam0 > 0.0 else
                       {"lambda0": lam0, "note": "expansion failure"}),
        ]
        return cm.MisiurewiczCertificate(a=a, delta0=delta0, b0=1.0,
                                         lambda0=lam0, horizon=horizon,
                                         verdicts=verdicts, vacuous=True,
                                         provenance=prov)

    worst_1a = math.inf
    for c in crit.points:
        loc = c + np.linspace(-delta0, delta0, 33)
        worst_1a = min(worst_1a, float(np.min(np.abs(family.deriv2(loc)))))
    v1a = cm.Verdict("1a-nondegenerate-turns", worst_1a >= cm.MORSE_TOL,
                     {"min_abs_h2": worst_1a})

    worst = (math.inf, None, None)
    ok_1b = True
    for ci, c in enumerate(crit.points):
        x = c
        for n in range(1, horizon + 1):
            x = family.val(a, x)
            d = crit.distance(x)
            if d < worst[0]:
                worst = (d, ci, n)
            if d < delta0:
                ok_1b = False
    v1b = cm.Verdict("1b-critical-orbit-avoidance", ok_1b,
                     {"min_dist": worst[0], "critical_index": worst[1],
                      "n": worst[2]})

    rng = np.random.default_rng(seed)
    samples: list[tuple[int, float]] = []
    land_samples: list[tuple[int, float]] = []
    for x0 in rng.uniform(0.0, TWO_PI, n_seeds):
        x, cum, seg = float(x0), 0.0, 0
        for _ in range(horizon):
            if crit.distance(x) < delta0:
                cum, seg = 0.0, 0
            else:
                d = abs(family.deriv(x))
                if d == 0.0:
                    cum, seg = 0.0, 0
                else:
                    cum += math.log(d)
                    seg += 1
                    samples.append((seg, cum))
            x = family.val(a, x)
            if seg > 0 and crit.distance(x) < delta0:
                land_samples.append((seg, cum))
    arr = np.array(samples, dtype=float)
    if len(arr) < 4 or arr[:, 0].min() == arr[:, 0].max():
        lam0, b0 = float("nan"), 0.0
        v2a = cm.Verdict("2a-expansion", False, "insufficient expansion samples")
        v2b = cm.Verdict("2b-return-expansion", False, "insufficient samples")
    else:
        slope, _ = np.polyfit(arr[:, 0], arr[:, 1], 1)
        lam0 = float(slope)
        env_2a = float(np.min(arr[:, 1] - lam0 * arr[:, 0])) - math.log(delta0)
        if land_samples:
            land = np.array(land_samples, dtype=float)
            env_2b = float(np.min(land[:, 1] - lam0 * land[:, 0]))
        else:
            env_2b = env_2a
        b0 = math.exp(min(env_2a, env_2b))
        v2a = cm.Verdict("2a-expansion", lam0 > 0.0 and b0 > 0.0,
                         {"lambda0": lam0, "b0": b0, "samples": len(arr)})
        v2b = cm.Verdict("2b-return-expansion", lam0 > 0.0 and b0 > 0.0,
                         {"landing_samples": len(land_samples)})
    return cm.MisiurewiczCertificate(a=a, delta0=delta0, b0=b0, lambda0=lam0,
                                     horizon=horizon,
                                     verdicts=[v1a, v1b, v2a, v2b],
                                     provenance=prov)


def rotation_rhos(family: cm.CircleMapFamily, a: float, n_iter: int,
                  n_seeds: int) -> list[float]:
    """Per-seed lift rotation numbers, one seed at a time."""
    rhos = []
    for x0 in np.linspace(0.0, TWO_PI, n_seeds, endpoint=False):
        xhat = float(x0)
        for _ in range(n_iter):
            xhat = family.lift(a, xhat)
        rhos.append((xhat - x0) / (TWO_PI * n_iter))
    return rhos


def superstable_g(family: cm.CircleMapFamily, grid: np.ndarray, c: float,
                  period: int) -> np.ndarray:
    """g(a) = lift^period(c) - c on an a-grid, one parameter at a time."""
    out = []
    for av in grid:
        x = c
        for _ in range(period):
            x = family.lift(float(av), x)
        out.append(x - c)
    return np.array(out)


# ---------------------------------------------------------------------------
# H1, one sample and one image pair at a time
# ---------------------------------------------------------------------------


def audit_H1(params: ModelParams, pert: Perturbation,
             lam_range=(1e-4, 1e-2), sample_size: int = 2000,
             seed: int = 0, thresholds: dict | None = None) -> HypothesisVerdict:
    """Determinant-ratio bound and injectivity spot-check, one point at a time.

    Draws the same random numbers in the same order as `audit.audit_H1`.  A
    sample with y + lam*Phi2 < 0 is not caught here: its determinant is the
    factored formula's value off the return domain.
    """
    t = _thresholds(thresholds)
    rng = np.random.default_rng(seed)
    lams = np.exp(rng.uniform(math.log(lam_range[0]), math.log(lam_range[1]),
                              sample_size))
    dets = []
    for lam in lams:
        pp = params.with_lambda(float(lam))
        x = float(rng.uniform(0.0, TWO_PI))
        ybar = float(rng.uniform(0.0, 1.0))
        d = abs(md.det_jac_return(CylinderPoint(x, lam * ybar), pp, pert))
        if d <= t["h1_det_floor"]:
            return HypothesisVerdict(
                "H1", "FAIL",
                {"reason": "degenerate determinant",
                 "witness": {"x": x, "ybar": ybar, "lambda": float(lam)}})
        dets.append(d / lam ** (params.delta - 1.0))
    dets = np.asarray(dets)
    ratio = float(dets.max() / dets.min())
    order_lam = np.argsort(lams)
    run_max = np.maximum.accumulate(dets[order_lam])
    run_min = np.minimum.accumulate(dets[order_lam])
    held = (run_max / run_min) <= t["h1_ratio_cap"]
    lam_held = float(lams[order_lam][held][-1]) if held.any() else None

    lam_mid = math.sqrt(lam_range[0] * lam_range[1])
    pp = params.with_lambda(lam_mid)
    n_inj = min(sample_size * 5, 10_000)
    xs = rng.uniform(0.0, TWO_PI, n_inj)
    ybars = rng.uniform(0.1, 1.0, n_inj)
    new_x, new_y, *_, alive = md.step_batch(
        xs, lam_mid * ybars, pp.lam, pp.k_omega, md._batch_constants(pp, pert))
    images = np.column_stack((md.wrap_angles(new_x),
                              new_y / lam_mid ** params.delta))
    images[~alive] = np.nan
    order = np.lexsort((images[:, 1], images[:, 0]))
    collisions = 0
    for a, b in zip(order[:-1], order[1:]):
        da = abs(images[a, 0] - images[b, 0]) + abs(images[a, 1] - images[b, 1])
        if not np.isfinite(da) or da > 1e-12:
            continue
        src = (abs(wrap_angle(xs[a] - xs[b] + math.pi) - math.pi)
               + abs(ybars[a] - ybars[b]))
        if src > 1e-9:
            collisions += 1
    ok = ratio <= t["h1_ratio_cap"] and collisions == 0
    return HypothesisVerdict("H1", "PASS" if ok else "FAIL",
                             {"k": math.sqrt(ratio), "det_ratio": ratio,
                              "ratio_cap": t["h1_ratio_cap"],
                              "injectivity_collisions": collisions,
                              "lambda_max_checked": float(lams.max()),
                              "largest_lambda_cap_held": lam_held,
                              "samples": sample_size})


# ---------------------------------------------------------------------------
# Regime classification, one scalar orbit per pass
# ---------------------------------------------------------------------------


def classify_cell(lam: float, k_omega: float, base_params: ModelParams,
                  pert: Perturbation, budget: Budget = Budget()) -> RegimeCell:
    """Label one (lambda, K_omega) parameter cell.

    Decision tree: detected period -> PeriodicSink; chi1 above threshold ->
    StrangeAttractorCandidate; thin orbit closure with near-zero chi1 ->
    InvariantCurve; otherwise TransientChaos.  Escape anywhere -> Escaped.
    """
    params = base_params.with_k_omega(k_omega).with_lambda(lam)
    p0 = CylinderPoint(0.5, lam)  # inside the absorbing annulus
    orbit = iterate(params, pert, p0, budget.n_iter, budget.burn_in)
    if orbit.escaped:
        return RegimeCell(lam, k_omega, "Escaped", escaped=True)
    tail_len = min(len(orbit.points), max(4 * PERIOD_CAP, 512))
    tail = orbit.points[-tail_len:]
    yscale = float(np.max(tail[:, 1]))
    period = _detect_period(tail, RECURRENCE_TOL, PERIOD_CAP, yscale)
    est = lyapunov(params, pert, CylinderPoint(*orbit.points[-1]),
                   min(budget.n_iter, LYAPUNOV_CAP), burn_in=0)
    try:
        rho = rotation_set_2d(params, pert,
                              [CylinderPoint(*orbit.points[k])
                               for k in (0, len(orbit.points) // 2, -1)],
                              min(ROTATION_CAP, budget.n_iter))
    except EscapeError:
        rho = (math.nan, math.nan)
    thick = _orbit_thickness(orbit.points[len(orbit.points) // 2:], lam,
                             params.delta)
    common = dict(chi1=est.chi1, chi2=est.chi2, thickness=thick,
                  rho_min=rho[0], rho_max=rho[1])
    if period is not None:
        return RegimeCell(lam, k_omega, "PeriodicSink", period=period, **common)
    if est.chi1 > budget.chi_thresh:
        return RegimeCell(lam, k_omega, "StrangeAttractorCandidate", **common)
    if thick < budget.curve_thresh and abs(est.chi1) <= budget.chi_thresh:
        return RegimeCell(lam, k_omega, "InvariantCurve", **common)
    return RegimeCell(lam, k_omega, "TransientChaos", **common)
