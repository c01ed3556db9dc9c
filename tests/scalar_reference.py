"""Scalar references for the fast paths of `bykovlab`.

Each reference is the plain definition of what a fast path computes.  Its
docstring's `Contract:` line says what the tests hold the fast path to,
and why the reference stays:

- bits: equal with ==, np.array_equal or repr ==, where the fast path runs
  the same float operations in the same order;
- definition: equal labels, verdicts or values within a stated tolerance,
  where the fast path may differ in the last bits.

Four groups:

- the return map: the local passages past each saddle-focus, their closed
  form `eta`, the perturbed global transition `psi_21`, their Jacobians,
  the factored determinant and a finite-difference Jacobian; the loops
  over the coefficient table's float rows (`image_step`, `return_step`)
  that the float kernel is compiled from, and the same rows summed on
  numpy arrays with lam and K_omega per orbit (`array_image`,
  `array_step`) that the array kernel is compiled from.
- circle-map loops that advance one orbit at a time with plain float calls
  of the family, the branch-by-interval transition matrix, the
  singular-limit error table one n at a time, the streaming Misiurewicz
  loop that ran before the (1b) screen, H4 certifying every a of its grid,
  bisection for a fixed number of halvings, H5's dp/da by a finite
  difference of pullbacks and the trigonometric-polynomial sums one
  derivative order at a time.
- `audit_H1` one sample at a time, and H6's height derivative by a central
  difference.
- regime classification: `classify_cell` as three one-orbit runs, period
  detection as one full pass per candidate period, `lyapunov` as one loop
  over `image_step`/`return_step`, and the lockstep that advances every
  cell one `array_image` (one `array_step` in the Lyapunov run) at a time
  (`lockstep`, `classify_batch`).
"""

import math

import numpy as np

from bykovlab import audit as au
from bykovlab import circlemap as cm
from bykovlab import model as md
from bykovlab import orbits as ob
from bykovlab.audit import HypothesisVerdict
from bykovlab.model import (TWO_PI, CylinderFunction, CylinderPoint,
                            EscapeError, ModelParams, Perturbation, TrigPoly)
from bykovlab.orbits import (CHI_THRESH, CURVE_THRESH, LYAPUNOV_CAP,
                             PERIOD_CAP, QR_CADENCE, RECURRENCE_TOL,
                             ROTATION_CAP, SATURATION, Budget,
                             LyapunovEstimate, RegimeCell, _gram_schmidt_2x2,
                             _lyapunov_estimate, _orbit_thickness, iterate,
                             rotation_set_2d)


# ---------------------------------------------------------------------------
# Factored return map
# ---------------------------------------------------------------------------


class TrappedError(ValueError):
    """Point lies on the wrong branch of a local map (y <= 0 or r <= 0)."""


def local_map_o1(p: CylinderPoint, params: ModelParams) -> tuple[float, float]:
    """Passage past the first saddle-focus: wall -> disc point (r, phi).
    Contract: definition; local_map_o2 after it must equal eta to rounding.
    """
    x, y = p
    if y <= 0.0:
        raise TrappedError(f"y={y}: trapped or wrong branch at the first focus")
    r = y ** params.delta1
    phi = x - (params.omega1 / params.e1) * math.log(y)
    return r, phi % TWO_PI


def local_map_o2(r: float, phi: float, params: ModelParams) -> CylinderPoint:
    """Passage past the second saddle-focus: disc point -> wall point.
    Contract: definition, as local_map_o1."""
    if r <= 0.0:
        raise TrappedError(f"r={r}: on the stable manifold of the second focus")
    x = phi - (params.omega2 / params.e2) * math.log(r)
    y = r ** params.delta2
    return CylinderPoint(x % TWO_PI, y)


def eta(p: CylinderPoint, params: ModelParams) -> CylinderPoint:
    """Closed form of the double passage: (x - K ln y mod 2pi, y^delta).
    Contract: definition; return_map must equal eta o psi_21 to rounding.
    """
    x, y = p
    if y <= 0.0:
        raise TrappedError(f"y={y}: entered lower branch / trapped")
    return CylinderPoint((x - params.k_omega * math.log(y)) % TWO_PI,
                         y ** params.delta)


def psi_21(p: CylinderPoint, params: ModelParams, pert: Perturbation) -> CylinderPoint:
    """Perturbed global transition (x, y) -> (x + xi + lam*Phi1, y + lam*Phi2).
    Contract: definition, as eta."""
    x, y = p
    lam = params.lam
    return CylinderPoint((x + params.xi + lam * pert.phi1(x, y)) % TWO_PI,
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
    """D psi_21 at p, from TrigPoly's derivatives.  Contract: definition;
    jac_return must equal jac_eta @ jac_psi21 to a few ULP."""
    x, y = p
    lam = params.lam
    return np.array([
        [1.0 + lam * _dx(pert.phi1, x, y), lam * _dy(pert.phi1, x, y)],
        [lam * _dx(pert.phi2, x, y), 1.0 + lam * _dy(pert.phi2, x, y)],
    ])


def jac_eta(p, params: ModelParams) -> np.ndarray:
    """D eta at p = (X, Y).  Contract: definition, as jac_psi21."""
    _, y = p
    return np.array([
        [1.0, -params.k_omega / y],
        [0.0, params.delta * y ** (params.delta - 1.0)],
    ])


def det_jac_return(p, params: ModelParams, pert: Perturbation) -> float:
    """Determinant via the factorization delta*Y^(delta-1) * det(D psi_21).
    Contract: bits; model.det_jac_return, which sums the table's float rows,
    must equal it with == on pairs whose terms are in table order."""
    x, y = p
    lam = params.lam
    big_y = y + lam * pert.phi2(x, y)
    dpsi = ((1.0 + lam * _dx(pert.phi1, x, y)) * (1.0 + lam * _dy(pert.phi2, x, y))
            - lam * lam * _dy(pert.phi1, x, y) * _dx(pert.phi2, x, y))
    return params.delta * big_y ** (params.delta - 1.0) * dpsi


def step_constants(params: ModelParams, pert: Perturbation) -> tuple:
    """Everything image_step and return_step read: the float kernel's
    scalars and the float rows it is compiled from.  A helper, no
    reference."""
    return params._step_scalars + pert._table


def row(r, trig) -> float:
    """One float row of Perturbation._table at shared cos/sin: the
    constant, then each term in column order.  Contract: bits; both
    kernels' generated sums unroll this loop."""
    out, terms = r
    for j, a in terms:
        out = out + a * trig[j]
    return out


def value(profile, trig, y: float) -> float:
    """P + y*Q of one profile's float rows.  Contract: bits, as row."""
    base, _, slope, _ = profile
    if slope is None:
        return row(base, trig)
    return row(base, trig) + y * row(slope, trig)


def partials(profile, trig, y: float) -> tuple[float, float]:
    """x- and y-derivatives P' + y*Q' and Q of one profile's float rows.
    Contract: bits, as row."""
    _, dx, slope, dslope = profile
    if slope is None:
        return row(dx, trig), 0.0
    return row(dx, trig) + y * row(dslope, trig), row(slope, trig)


def image_step(x: float, y: float, consts: tuple) -> tuple:
    """The float kernel's image as a loop over the table's float rows.

    Returns (unwrapped new angle, new height, Y, trig) with Y = y + lam*Phi2
    and trig the cos kx, sin kx of each harmonic, which return_step reuses.
    Raises EscapeError when Y <= 0 or the image height leaves the strip.
    Contract: bits.  The compiled float kernel (`Perturbation._kernel`)
    must equal it and return_step with ==, and raise EscapeError at the
    same inputs; they are the plain loops its generated source unrolls.
    """
    lam, xi, k_omega, delta, harmonics, phi1, phi2 = consts
    trig = [g(k * x) for k in harmonics for g in (math.cos, math.sin)]
    big_y = y + lam * value(phi2, trig, y)
    if big_y <= 0.0:
        raise EscapeError(CylinderPoint(x, y))
    new_y = big_y ** delta
    if new_y > 1.0:
        raise EscapeError(CylinderPoint(x, y))
    return (x + xi + lam * value(phi1, trig, y) - k_omega * math.log(big_y),
            new_y, big_y, trig)


def return_step(x: float, y: float, consts: tuple) -> tuple[float, ...]:
    """The float kernel's step as a loop: image_step and the Jacobian.

    Returns (unwrapped new angle, new height, j11, j12, j21, j22), the
    chain rule D eta(X, Y) @ D psi_21(x, y) with the pair's partials at the
    image's cos/sin.  Raises EscapeError where image_step does.
    Contract: bits, as image_step; lyapunov below steps through both.
    """
    new_x, new_y, big_y, trig = image_step(x, y, consts)
    lam, _, k_omega, delta, _, phi1, phi2 = consts
    f1x, f1y = partials(phi1, trig, y)
    f2x, f2y = partials(phi2, trig, y)
    e12 = -k_omega / big_y
    e22 = delta * big_y ** (delta - 1.0)
    p21 = lam * f2x
    p22 = 1.0 + lam * f2y
    return (new_x, new_y, 1.0 + lam * f1x + e12 * p21, lam * f1y + e12 * p22,
            e22 * p21, e22 * p22)


def array_image(x, y, lam, k_omega, params: ModelParams,
                pert: Perturbation) -> tuple:
    """image_step's float rows summed on numpy arrays, lam and K_omega per
    orbit, with numpy's cos, sin, log and power.

    Returns (unwrapped new angles, new heights, Y, trig) with
    Y = y + lam*Phi2, raw: nothing is checked, and where Y <= 0 the new
    angle is NaN or infinite.
    Contract: bits.  The compiled array kernel's image
    (`Perturbation._array_kernel`) must equal it with np.array_equal; it
    stays as the plain sum that kernel's generated source unrolls.
    """
    harmonics, phi1, phi2 = pert._table
    trig = [g(k * x) for k in harmonics for g in (np.cos, np.sin)]
    big_y = y + lam * value(phi2, trig, y)
    new_y = big_y ** params.delta
    new_x = (x + params.xi + lam * value(phi1, trig, y)
             - k_omega * np.log(big_y))
    return new_x, new_y, big_y, trig


def array_step(x, y, lam, k_omega, params: ModelParams,
               pert: Perturbation) -> tuple:
    """array_image and the Jacobian from the same cos, sin and Y.

    Returns (unwrapped new angles, new heights, j11, j12, j21, j22, Y):
    return_step's chain rule with r = K/Y, e22 = delta*Y^(delta-1) and
    p22 = 1 + lam*Phi2_y, written as both compiled kernels write it
    (a - r*p for return_step's a + e12*p, which is equal).
    Contract: bits.  model.step_batch must equal it with np.array_equal;
    it stays for the reason array_image does.
    """
    new_x, new_y, big_y, trig = array_image(x, y, lam, k_omega, params,
                                            pert)
    (f1x, f1y), (f2x, f2y) = (partials(p, trig, y) for p in pert._table[1:])
    r = k_omega / big_y
    e22 = params.delta * big_y ** (params.delta - 1.0)
    lf2x = lam * f2x
    p22 = 1.0 + lam * f2y
    return (new_x, new_y, 1.0 + lam * f1x - r * lf2x, lam * f1y - r * p22,
            e22 * lf2x, e22 * p22, big_y)


# Phi1 and Phi2 with y-dependent slopes and a second harmonic, so every
# table entry and partial derivative of the return-step kernel is nonzero;
# y + lam*Phi2 > 0 wherever y >= 0
SLOPED = Perturbation(
    phi1=CylinderFunction(TrigPoly(0.2, ((1, 1.0, 0.0), (2, 0.0, 0.4))),
                          slope=TrigPoly(0.0, ((2, 0.3, 0.1),))),
    phi2=CylinderFunction(TrigPoly(1.1, ((1, 0.0, 1.0),)),
                          slope=TrigPoly(0.05, ((1, 0.02, 0.0),))))

# Terms out of harmonic order, a repeated harmonic and a k=3 term, with
# slopes on both profiles: the kernels add the table's merged, sorted
# coefficients, not TrigPoly's terms one by one, so the last bits may differ
# from the TrigPoly sums; Phi2 > 0.2 wherever |y| <= 1
TANGLED = Perturbation(
    phi1=CylinderFunction(
        TrigPoly(0.1, ((3, 0.2, -0.1), (1, 0.7, 0.3), (3, 0.05, 0.15))),
        slope=TrigPoly(-0.05, ((2, 0.1, 0.2), (1, 0.3, 0.0)))),
    phi2=CylinderFunction(
        TrigPoly(1.3, ((1, 0.0, 0.8), (3, 0.1, 0.05), (1, 0.2, 0.0))),
        slope=TrigPoly(0.1, ((3, 0.02, -0.03),))))


FD_STEP = 1e-6


def finite_difference_jacobian(fn, p, h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference Jacobian of a planar map.

    Angle components are compared on the circle, so the step may cross the
    branch cut of the mod-2pi reduction.
    Contract: definition, to the difference's accuracy; the one check of
    the analytic Jacobians that shares none of their algebra.
    """
    x, y = p

    def delta(pp, pm):
        return (pp[0] - pm[0] + math.pi) % TWO_PI - math.pi, pp[1] - pm[1]

    fx = delta(fn((x + h, y)), fn((x - h, y)))
    fy = delta(fn((x, y + h)), fn((x, y - h)))
    return np.array([
        [fx[0] / (2 * h), fy[0] / (2 * h)],
        [fx[1] / (2 * h), fy[1] / (2 * h)],
    ])


# ---------------------------------------------------------------------------
# Circle-map loops, one orbit at a time
# ---------------------------------------------------------------------------


def trig_value(p: TrigPoly, x):
    """P(x), one harmonic at a time.  Contract: bits; TrigPoly.jet must
    equal each order's sum byte for byte."""
    x = np.asarray(x, dtype=float)
    out = p.constant + np.zeros_like(x)
    for k, ck, sk in p.terms:
        out = out + ck * np.cos(k * x) + sk * np.sin(k * x)
    return out


def trig_d1(p: TrigPoly, x):
    """P'(x), one harmonic at a time.  Contract: bits, as trig_value."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k, ck, sk in p.terms:
        out = out + k * (-ck * np.sin(k * x) + sk * np.cos(k * x))
    return out


def trig_d2(p: TrigPoly, x):
    """P''(x), one harmonic at a time.  Contract: bits, as trig_value."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k, ck, sk in p.terms:
        out = out - k * k * (ck * np.cos(k * x) + sk * np.sin(k * x))
    return out


def misiurewicz_check(family: cm.CircleMapFamily, a: float,
                      delta0: float = 0.05, horizon: int = 50,
                      n_seeds: int = 32,
                      seed: int = 0) -> cm.MisiurewiczCertificate:
    """One orbit at a time: the reference for `cm.misiurewicz_scan`.
    Contract: bits; the scan must give equal certificate reports."""
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
                    cum += float(np.log(d))
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


def misiurewicz_scan_lockstep(family: cm.CircleMapFamily, a_values,
                              delta0: float = 0.05, horizon: int = 50,
                              n_seeds: int = 32, seed: int = 0
                              ) -> list[cm.MisiurewiczCertificate]:
    """The streaming loop `cm.misiurewicz_scan` ran before (1b) moved to
    `cm.critical_orbit_distances`: the critical and seed orbits of every a
    advance in lockstep as one (n_a, q + n_seeds) array, and the critical
    columns' distances are written step by step.

    Contract: bits.  cm.misiurewicz_scan, whose (1b) verdict comes from
    cm.critical_orbit_distances, must give equal certificates.  It stays
    beside misiurewicz_check because that loop, on the 5 families x 64 a
    of TestCriticalOrbitScreen, would add over 20 s to the suite (about
    70 ms per a on a 2-core VM).
    """
    if horizon < 1 or delta0 <= 0.0:
        raise ValueError("need horizon >= 1 and delta0 > 0")
    if n_seeds < 1:
        raise ValueError(f"need n_seeds >= 1, got n_seeds={n_seeds}")
    a_values = list(a_values)
    crit = family.critical_set
    q = crit.q

    def provenance() -> dict:
        return {"grid": cm.DEFAULT_GRID, "seeds": n_seeds,
                "tolerances": {"delta0": delta0, "root_tol": cm.ROOT_TOL,
                               "morse_tol": cm.MORSE_TOL}, "rng_seed": seed}

    if q == 0:  # vacuous: no orbit is stepped
        return [misiurewicz_check(family, a, delta0, horizon, n_seeds, seed)
                for a in a_values]

    loc = crit.points[:, None] + np.linspace(-delta0, delta0, 33)
    worst_1a = float(np.min(np.abs(family.deriv2(loc))))

    n_a = len(a_values)
    a_col = np.array(a_values, dtype=float)[:, None]
    x0 = np.random.default_rng(seed).uniform(0.0, TWO_PI, n_seeds)
    x = np.broadcast_to(np.concatenate([crit.points, x0]), (n_a, q + n_seeds))
    dist = crit.distance(x)
    crit_dist = np.empty((n_a, q, horizon))
    sampled = np.empty((n_a, n_seeds, horizon), dtype=bool)
    cum_hist = np.empty((n_a, n_seeds, horizon))
    lands_next = np.empty((n_a, n_seeds, horizon), dtype=bool)
    cum = np.zeros((n_a, n_seeds))
    for n in range(horizon):
        x, dh = family.step(a_col, x)
        d = np.abs(dh[:, q:])
        reset = (dist[:, q:] < delta0) | (d == 0.0)
        cum = np.where(reset, 0.0,
                       cum + np.log(np.where(reset, 1.0, d)))
        dist = crit.distance(x)
        crit_dist[:, :, n] = dist[:, :q]
        sampled[:, :, n] = ~reset
        cum_hist[:, :, n] = cum
        lands_next[:, :, n] = dist[:, q:] < delta0

    steps = np.arange(horizon)
    certs = []
    for i, a in enumerate(a_values):
        v1a = cm.Verdict("1a-nondegenerate-turns", worst_1a >= cm.MORSE_TOL,
                         {"min_abs_h2": worst_1a})
        flat = crit_dist[i].ravel()
        k = int(np.argmin(flat))
        v1b = cm.Verdict("1b-critical-orbit-avoidance",
                         not np.any(flat < delta0),
                         {"min_dist": float(flat[k]),
                          "critical_index": k // horizon,
                          "n": k % horizon + 1})
        last_reset = np.maximum.accumulate(
            np.where(sampled[i], -1, steps), axis=1)
        mask = sampled[i].ravel()
        segs = (steps - last_reset).ravel()[mask].astype(float)
        cums = cum_hist[i].ravel()[mask]
        land = lands_next[i].ravel()[mask]
        if len(segs) < 4 or segs.min() == segs.max():
            lam0, b0 = float("nan"), 0.0
            v2a = cm.Verdict("2a-expansion", False,
                             "insufficient expansion samples")
            v2b = cm.Verdict("2b-return-expansion", False,
                             "insufficient samples")
        else:
            slope, _ = np.polyfit(segs, cums, 1)
            lam0 = float(slope)
            env_2a = float(np.min(cums - lam0 * segs)) - math.log(delta0)
            if land.any():
                env_2b = float(np.min(cums[land] - lam0 * segs[land]))
            else:
                env_2b = env_2a
            b0 = math.exp(min(env_2a, env_2b))
            v2a = cm.Verdict("2a-expansion", lam0 > 0.0 and b0 > 0.0,
                             {"lambda0": lam0, "b0": b0,
                              "samples": len(segs)})
            v2b = cm.Verdict("2b-return-expansion", lam0 > 0.0 and b0 > 0.0,
                             {"landing_samples": int(land.sum())})
        certs.append(cm.MisiurewiczCertificate(
            a=a, delta0=delta0, b0=b0, lambda0=lam0, horizon=horizon,
            verdicts=[v1a, v1b, v2a, v2b], provenance=provenance()))
    return certs


def critical_orbit_distances(family: cm.CircleMapFamily, a_values,
                             horizon: int) -> np.ndarray:
    """Distance of h_a^n(c) to the critical set, one float step at a time.
    Contract: bits; cm.critical_orbit_distances must equal it with
    np.array_equal.  CriticalSet.distance, which both call, is pinned to
    its loop definition in tests/test_circlemap.py."""
    crit = family.critical_set
    out = np.empty((len(a_values), crit.q, horizon))
    for i, a in enumerate(a_values):
        for ci, c in enumerate(crit.points):
            x = float(c)
            for n in range(horizon):
                x = family.val(float(a), x)
                out[i, ci, n] = crit.distance(x)
    return out


def audit_H4(family: cm.CircleMapFamily, a_window=(0.0, TWO_PI),
             n_a: int = 256, seed: int = 0) -> HypothesisVerdict:
    """H4's definition: every a of the grid certified in full.  Contract:
    bits; audit.audit_H4, which certifies in full only the a that pass
    (1b), must give an equal verdict."""
    if n_a < 1:
        raise ValueError(f"need n_a >= 1, got n_a={n_a}")
    crit = family.critical_set
    if crit.q == 0:
        return HypothesisVerdict(
            "H4", "FAIL",
            {"reason": "diffeomorphism regime - increase K_omega",
             "critical_points": 0})
    certs = cm.misiurewicz_scan(
        family, np.linspace(a_window[0], a_window[1], n_a, endpoint=False),
        delta0=au.THRESHOLDS["h4_delta0"],
        horizon=au.THRESHOLDS["h4_horizon"], seed=seed)
    passing = [{"a": float(c.a), "lambda0": c.lambda0, "b0": c.b0}
               for c in certs if c.passed]
    return HypothesisVerdict(
        "H4", "PASS" if passing else "FAIL",
        {"passing": passing, "scanned": n_a,
         "delta0": au.THRESHOLDS["h4_delta0"],
         "horizon": au.THRESHOLDS["h4_horizon"], "critical_points": crit.q})


def rotation_rhos(family: cm.CircleMapFamily, a: float, n_iter: int,
                  n_seeds: int) -> list[float]:
    """Per-seed lift rotation numbers, one seed at a time.  Contract: bits;
    cm.rotation_interval's lockstep seeds must give the same min and max."""
    rhos = []
    for x0 in np.linspace(0.0, TWO_PI, n_seeds, endpoint=False):
        xhat = float(x0)
        for _ in range(n_iter):
            xhat = family.lift(a, xhat)
        rhos.append((xhat - x0) / (TWO_PI * n_iter))
    return rhos


def superstable_g(family: cm.CircleMapFamily, grid: np.ndarray, c: float,
                  period: int) -> np.ndarray:
    """g(a) = lift^period(c) - c on an a-grid, one parameter at a time.
    Contract: bits; cm._lift_iterate must equal it with np.array_equal."""
    out = []
    for av in grid:
        x = c
        for _ in range(period):
            x = family.lift(float(av), x)
        out.append(x - c)
    return np.array(out)


def bisect(f, lo, hi, flo, steps: int) -> np.ndarray:
    """`model._bisect` without its early exit: exactly `steps` halvings of
    every bracket.  Contract: bits; model._bisect must equal it by uint64
    view, NaN payloads and signed zeros included."""
    lo, hi, flo = (np.array(v, dtype=float)
                   for v in np.broadcast_arrays(lo, hi, flo))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        left = flo * fm <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    return 0.5 * (lo + hi)


def collet_eckmann_check(family: cm.CircleMapFamily, a: float,
                         cert: cm.MisiurewiczCertificate,
                         lambda_ce: float | None = None, alpha: float = 0.05,
                         horizon: int = 100) -> cm.CEReport:
    """One critical orbit and one step at a time: the reference for
    `cm.collet_eckmann_check`.  Contract: bits; equal JSON reports."""
    if lambda_ce is None:
        lambda_ce = cert.lambda0 / 10.0
    if not lambda_ce < cert.lambda0 / 5.0:
        raise ValueError(f"need lambda_ce < lambda0/5 = {cert.lambda0 / 5.0}")
    crit = family.critical_set
    verdicts = []
    prov = {"grid": cm.DEFAULT_GRID, "seeds": 0,
            "tolerances": {"delta0": cert.delta0, "b0": cert.b0}}
    if crit.q == 0:
        verdicts.append(cm.Verdict("CE1", True, "vacuous: empty critical set"))
        verdicts.append(cm.Verdict("CE2", True, "vacuous"))
        return cm.CEReport(a, lambda_ce, alpha, horizon, verdicts, prov)
    for ci, c in enumerate(crit.points):
        x = family.val(a, c)
        ok1, wit1 = True, (math.inf, None)
        ok2, wit2 = True, (math.inf, None)
        cum = 0.0
        for n in range(1, horizon + 1):
            # CE1 at iterate n of c
            d = crit.distance(x)
            bound1 = min(cert.delta0 / 2.0, 2.0 * math.exp(-alpha * n))
            if d - bound1 < wit1[0]:
                wit1 = (d - bound1, n)
            if d < bound1:
                ok1 = False
            # CE2: |(h^n)'(h(c))| vs 2*b0*delta0*exp(lambda_ce*n)
            dv = abs(family.deriv(x))
            cum += float(np.log(dv)) if dv > 0.0 else -math.inf
            margin = cum - (math.log(2.0 * cert.b0 * cert.delta0)
                            + lambda_ce * n)
            if margin < wit2[0]:
                wit2 = (margin, n)
            if margin < 0.0:
                ok2 = False
            x = family.val(a, x)
        verdicts.append(cm.Verdict(f"CE1[c{ci}]", ok1,
                                   {"tightest_margin": wit1[0], "n": wit1[1]}))
        verdicts.append(cm.Verdict(f"CE2[c{ci}]", ok2,
                                   {"tightest_log_margin": wit2[0],
                                    "n": wit2[1]}))
    return cm.CEReport(a, lambda_ce, alpha, horizon, verdicts, prov)


def transition_q(family: cm.CircleMapFamily, a: float,
                 partition: cm.MonotonicityPartition) -> np.ndarray:
    """The 0/1 matrix of `cm.transition_matrix`, one (branch, interval)
    pair at a time.  Contract: bits; equal matrices."""
    r = partition.r
    q = np.zeros((r, r), dtype=int)
    for i in range(r):
        lo_end = family.lift(a, float(partition.starts[i]))
        hi_end = family.lift(a, float(partition.starts[i]
                                      + partition.gaps[i]))
        lo, hi = min(lo_end, hi_end), max(lo_end, hi_end)
        for m in range(r):
            alpha = float(partition.starts[m])
            beta = alpha + float(partition.gaps[m])
            k_min = math.ceil((lo - alpha) / TWO_PI - 1e-12)
            k_max = math.floor((hi - beta) / TWO_PI + 1e-12)
            if k_min <= k_max:
                q[i, m] = 1
    return q


def singular_limit_convergence(params: ModelParams, pert: Perturbation,
                               a: float, n_range: range) -> list:
    """One n at a time: the reference for `cm.singular_limit_convergence`.

    Each n steps its own strip grid through `model.step_batch` with one
    float lam and masks by boolean indexing.
    Contract: bits of the batching, not of the kernel.  The one-batch table
    over every n must equal it with repr ==; the kernel is checked against
    return_map/jac_return point by point in tests/test_singular_limit.py.
    """
    k, delta = params.k_omega, params.delta
    xs = np.linspace(0.0, TWO_PI, cm.LIMIT_GRID[0], endpoint=False)
    h, dh = cm.family_from_model(params, pert).step(a, xs)
    rows = []
    for n in n_range:
        _, lam = cm.lambda_sequences(k, n, a)
        cap = min(1.0, lam ** (delta - 1.0) * (1.0 + pert.phi2_max()) ** delta)
        xg, yg = np.meshgrid(xs, np.linspace(0.0, cap, cm.LIMIT_GRID[1]),
                             indexing="ij")
        new_x, new_y, j11, _, _, _, big_y = (
            v.reshape(xg.shape) for v in md.step_batch(
                xg.ravel(), lam * yg.ravel(), lam, k, params, pert))
        ok = big_y > 0.0  # excluded: y + lam*Phi2 <= 0
        edge = ok[:, 0]
        rows.append(cm.ConvergenceRow(
            n=n, lam=lam,
            value_err=float(np.max(md.circle_gap(new_x[:, 0], h)[edge])),
            d1_err=float(np.max(np.abs(j11[:, 0] - dh)[edge])),
            second_comp_err=float(np.max((new_y / lam)[ok])),
            excluded=int(np.sum(~ok)),
            twist_offset=cm.twist_of_lambda(k, lam) - (a + TWO_PI * n)))
    return rows


def h5_dp_da(family: cm.CircleMapFamily, a_star: float,
             step: float = 1e-6) -> float:
    """dp/da of H5's continuation by a central difference of pullbacks.

    The orbit of v* = h_{a*}(c) is followed on the lift for H5_HORIZON - 1
    steps, to the fixed target X.  p(a) pulls X back as many times through
    h_a; each preimage solves lift(a, y) = next by Newton's method started at
    the orbit point it replaces, so it stays on that point's branch and
    lift, however often the branch's image wraps the circle.
    Contract: definition.  H5's closed-form dp/da must agree to 1e-3.
    """
    c = float(family.critical_set.points[0])
    orbit = [family.val(a_star, c)]
    for _ in range(au.H5_HORIZON - 1):
        orbit.append(float(family.lift(a_star, orbit[-1])))

    def p_of_a(a: float) -> float:
        y = orbit[-1]
        for x in reversed(orbit[:-1]):
            target, y = y, x
            for _ in range(20):
                y -= (float(family.lift(a, y)) - target) / family.deriv(y)
        return y

    return (p_of_a(a_star + step) - p_of_a(a_star - step)) / (2.0 * step)


# ---------------------------------------------------------------------------
# H1 and H6, one sample at a time
# ---------------------------------------------------------------------------


def audit_H1(params: ModelParams, pert: Perturbation,
             lam_range=(1e-4, 1e-2), seed: int = 0) -> HypothesisVerdict:
    """Determinant-ratio bound and fold check, one sample at a time.

    Draws the same random numbers in the same order as `audit.audit_H1`,
    whose H1_SAMPLES and THRESHOLDS it reads at call time, and counts the
    negative determinants; samples of both signs are a fold.  A sample with
    y + lam*Phi2 < 0 is not caught here: its determinant is the factored
    formula's value off the return domain.
    Contract: definition.  audit.audit_H1, which takes every determinant
    from one model.step_batch call, must give the same status, and k and
    det_ratio to 1e-13; the array determinant is not det_jac_return's to
    the bit.
    """
    t, sample_size = au.THRESHOLDS, au.H1_SAMPLES
    rng = np.random.default_rng(seed)
    lams = np.exp(rng.uniform(math.log(lam_range[0]), math.log(lam_range[1]),
                              sample_size))
    dets = []
    negative = 0
    for lam in lams:
        pp = params.with_lambda(float(lam))
        x = float(rng.uniform(0.0, TWO_PI))
        ybar = float(rng.uniform(0.0, 1.0))
        d = md.det_jac_return(CylinderPoint(x, lam * ybar), pp, pert)
        if abs(d) <= t["h1_det_floor"]:
            return HypothesisVerdict(
                "H1", "FAIL",
                {"reason": "degenerate determinant",
                 "witness": {"x": x, "ybar": ybar, "lambda": float(lam)}})
        if d < 0.0:
            negative += 1
        dets.append(abs(d) / lam ** (params.delta - 1.0))
    dets = np.asarray(dets)
    ratio = float(dets.max() / dets.min())
    order_lam = np.argsort(lams)
    run_max = np.maximum.accumulate(dets[order_lam])
    run_min = np.minimum.accumulate(dets[order_lam])
    held = (run_max / run_min) <= t["h1_ratio_cap"]
    lam_held = float(lams[order_lam][held][-1]) if held.any() else None
    folded = 0 < negative < sample_size
    ok = ratio <= t["h1_ratio_cap"] and not folded
    return HypothesisVerdict("H1", "PASS" if ok else "FAIL",
                             {"k": math.sqrt(ratio), "det_ratio": ratio,
                              "ratio_cap": t["h1_ratio_cap"],
                              "negative_determinants": negative,
                              "lambda_max_checked": float(lams.max()),
                              "largest_lambda_cap_held": lam_held,
                              "samples": sample_size})


def h6_height_derivative(params: ModelParams, pert: Perturbation, x: float,
                         step: float = 1e-6) -> float:
    """d/d ybar of the limit map's first component at (x, 0), numerically.

    A central difference of the lift h_a(x, ybar) = x + xi + a
    - K ln(ybar + Phi2(x, ybar)) at a = 0 (a only shifts h_a).
    Contract: definition.  The closed form `audit.audit_H6` reads must
    agree to 1e-6.
    """
    def h(ybar: float) -> float:
        return (x + params.xi
                - params.k_omega * math.log(ybar + float(pert.phi2(x, ybar))))

    return (h(step) - h(-step)) / (2.0 * step)


# ---------------------------------------------------------------------------
# Regime classification, one scalar orbit per pass
# ---------------------------------------------------------------------------


def detect_period(tail: np.ndarray, tol: float, cap: int,
                  yscale: float) -> int | None:
    """Smallest p <= cap with recurrence |orbit_{n+p} - orbit_n| <= tol.

    Heights are compared relative to yscale (the orbit's own y-magnitude),
    angles on the circle.
    Contract: bits.  orbits._detect_period, which rejects most candidates
    as one array first, must return the same period.
    """
    m = len(tail)
    if m < 2 * cap:
        return None
    ys = tail[:, 1] / max(yscale, 1e-300)
    for p in range(1, cap + 1):
        dx = np.abs(np.mod(tail[p:, 0] - tail[:-p, 0] + math.pi, TWO_PI) - math.pi)
        dy = np.abs(ys[p:] - ys[:-p])
        if float(np.max(dx)) <= tol and float(np.max(dy)) <= tol:
            return p
    return None


def classify_cell(lam: float, k_omega: float, base_params: ModelParams,
                  pert: Perturbation, budget: Budget = Budget()) -> RegimeCell:
    """Label one (lambda, K_omega) parameter cell.

    Decision tree: detected period -> PeriodicSink; chi1 above threshold ->
    StrangeAttractorCandidate; chi1 not within CHI_THRESH of 0 (NaN
    included) -> TransientChaos; else thin orbit closure -> InvariantCurve,
    otherwise TransientChaos.  Escape anywhere -> Escaped.
    Three separate one-orbit runs: iterate and rotation_set_2d of the float
    kernel, and lyapunov below.  The thickness is fitted on the second half
    of the orbit only in the last branch, and is NaN everywhere else.
    Contract: definition.  orbits.classify_batch must give equal labels
    and periods, NaN thickness exactly where this gives NaN, and equal
    exponents, rotation numbers and thickness to 1e-9 where the orbit
    does not amplify the ULP differences between numpy's and math's log
    and power.
    """
    params = base_params.with_k_omega(k_omega).with_lambda(lam)
    p0 = CylinderPoint(0.5, lam)  # inside the absorbing annulus
    orbit = iterate(params, pert, p0, budget.n_iter, budget.burn_in)
    if orbit.escaped:
        return RegimeCell(lam, k_omega, "Escaped", escaped=True)
    tail_len = min(len(orbit.points), max(4 * PERIOD_CAP, 512))
    tail = orbit.points[-tail_len:]
    yscale = float(np.max(tail[:, 1]))
    period = detect_period(tail, RECURRENCE_TOL, PERIOD_CAP, yscale)
    est = lyapunov(params, pert, CylinderPoint(*orbit.points[-1]),
                   min(budget.n_iter, LYAPUNOV_CAP), burn_in=0)
    try:
        rho = rotation_set_2d(params, pert,
                              [CylinderPoint(*orbit.points[k])
                               for k in (0, len(orbit.points) // 2, -1)],
                              min(ROTATION_CAP, budget.n_iter))
    except EscapeError:
        rho = (math.nan, math.nan)
    common = dict(chi1=est.chi1, chi2=est.chi2, rho_min=rho[0],
                  rho_max=rho[1])
    if period is not None:
        return RegimeCell(lam, k_omega, "PeriodicSink", period=period, **common)
    if est.chi1 > CHI_THRESH:
        return RegimeCell(lam, k_omega, "StrangeAttractorCandidate", **common)
    if not abs(est.chi1) <= CHI_THRESH:
        return RegimeCell(lam, k_omega, "TransientChaos", **common)
    thick = _orbit_thickness(orbit.points[len(orbit.points) // 2:], lam,
                             params.delta)
    label = "InvariantCurve" if thick < CURVE_THRESH else "TransientChaos"
    return RegimeCell(lam, k_omega, label, thickness=thick, **common)


# ---------------------------------------------------------------------------
# One-orbit Lyapunov exponents and the per-step lockstep
# ---------------------------------------------------------------------------


def lyapunov(params: ModelParams, pert: Perturbation, p0: CylinderPoint,
             n: int, burn_in: int = 1000) -> LyapunovEstimate:
    """QR-renormalized exponents of one orbit, one loop over the float rows.

    image_step steps the burn-in and return_step each measured step, whose
    Jacobian is folded into a 2x2 product of plain floats, re-orthonormalized
    every QR_CADENCE steps; an escape stops the run before the escaping step
    is counted.
    Contract: bits.  orbits.lyapunov, which steps through return_map and
    jac_return (the compiled float kernel), must give equal estimates,
    every field ==.  The two share no stepping code (only the angle rule
    `% TWO_PI`, the 2x2 QR and the final estimate), so this pins its orbit,
    product order, renormalizations and escape index.
    """
    if n < 0 or burn_in < 0:
        raise ValueError(f"need n >= 0 and burn_in >= 0, got n={n}, "
                         f"burn_in={burn_in}")
    consts = step_constants(params, pert)
    x, y = p0.x % TWO_PI, p0.y
    l1 = l2 = logdet = batch_ld = 0.0
    p11, p12, p21, p22 = 1.0, 0.0, 0.0, 1.0
    escaped_at = None
    for i in range(burn_in + n):
        try:
            if i < burn_in:
                x, y = image_step(x, y, consts)[:2]
            else:
                x, y, a, b, c, d = return_step(x, y, consts)
        except EscapeError:
            escaped_at = i
            break
        x %= TWO_PI
        if i >= burn_in:
            det = abs(a * d - b * c)
            ld = math.log(det) if 0.0 < det < math.inf else SATURATION * 2.0
            logdet += ld
            batch_ld += ld
            p11, p12, p21, p22 = (a * p11 + b * p21, a * p12 + b * p22,
                                  c * p11 + d * p21, c * p12 + d * p22)
            if (i + 1 - burn_in) % QR_CADENCE == 0:
                p11, p12, p21, p22, d1, d2 = _gram_schmidt_2x2(
                    p11, p12, p21, p22, batch_ld)
                l1 += d1 if math.isfinite(d1) else SATURATION * QR_CADENCE
                l2 += d2 if math.isfinite(d2) else SATURATION * QR_CADENCE
                batch_ld = 0.0
    done = max(0, (burn_in + n if escaped_at is None else escaped_at) - burn_in)
    return _lyapunov_estimate(l1, l2, batch_ld, (p11, p12, p21, p22), done,
                              n, escaped_at, logdet)


def lockstep(params: list, pert: Perturbation, budget: Budget) -> list:
    """One orbit per cell, all cells advanced one step at a time.

    array_image steps the burn-in and recorded steps, array_step the
    Lyapunov run, whose log-determinants, products and renormalizations
    are folded in at every step; an orbit escapes where not Y > 0 or its
    new height exceeds 1, and is dropped from the arrays.  Each new angle
    is wrapped by np.remainder(x, 2pi), lyapunov's `% TWO_PI` on arrays.
    Returns what orbits._lockstep returns.  Only the log-determinant since
    the last renormalization is kept, so no estimate has a det_consistency.
    Contract: bits.  orbits._lockstep must equal it with repr ==, its
    recorded points bit for bit; it stays as the orchestration without the
    fast path's blocks, buffers and parked orbits.
    """
    burn, n = budget.burn_in, budget.n_iter
    n_lyap, n_rot = min(n, LYAPUNOV_CAP), min(ROTATION_CAP, n)
    first, half = ob._recorded_range(n)
    rec0, lyap0 = burn + first, burn + n
    seed_starts = (burn, burn + half, burn + n)
    windows = {t: (sum(t >= s + n_rot for s in seed_starts),
                   sum(t >= s for s in seed_starts))
               for s0 in seed_starts for t in (s0, s0 + n_rot)}
    base = params[0]
    m = len(params)
    lam = np.array([p.lam for p in params])
    k_omega = np.array([p.k_omega for p in params])
    x, y = np.full(m, 0.5), lam.copy()
    cols = np.arange(m)
    rec_x, rec_y = np.empty((n + 1 - first, m)), np.empty((n + 1 - first, m))
    prod0 = np.repeat([[1.0], [0.0]], m, axis=1)
    prod1 = np.repeat([[0.0], [1.0]], m, axis=1)
    sums = np.zeros((3, m))  # l1, l2, batch_ld
    disp = np.zeros((3, m))
    escaped = np.zeros(m, dtype=bool)
    seed_ok = np.ones((3, m), dtype=bool)
    final_disp = np.zeros((3, m))
    estimates = [None] * m

    def finish(pos: int, escaped_at) -> None:
        c = cols[pos]
        done = n_lyap if escaped_at is None else escaped_at
        estimates[c] = _lyapunov_estimate(
            *sums[:, pos].tolist(),
            (*prod0[:, pos].tolist(), *prod1[:, pos].tolist()),
            done, n_lyap, escaped_at)
        final_disp[:, c] = disp[:, pos]

    lo = hi = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(lyap0 + n_lyap):
            if rec0 <= t <= lyap0:
                rec_x[t - rec0, cols], rec_y[t - rec0, cols] = x, y
            if t < lyap0:
                xn, yn, big_y = array_image(x, y, lam, k_omega, base,
                                            pert)[:3]
                jac = ()
            else:
                xn, yn, *jac, big_y = array_step(x, y, lam, k_omega, base,
                                                 pert)
            alive = (big_y > 0.0) & (yn <= 1.0)
            if np.count_nonzero(alive) < alive.size:
                for pos in np.flatnonzero(~alive).tolist():
                    if t < lyap0:
                        escaped[cols[pos]] = True
                        continue
                    finish(pos, t - lyap0)
                    for j, start in enumerate(seed_starts):
                        seed_ok[j, cols[pos]] = t >= start + n_rot
                x, y, lam, k_omega, cols, xn, yn, *jac = (
                    v[alive] for v in (x, y, lam, k_omega, cols, xn, yn, *jac))
                prod0, prod1, sums, disp = (v[:, alive] for v in
                                            (prod0, prod1, sums, disp))
                if not cols.size:
                    break
            if t in windows:
                lo, hi = windows[t]
            if hi > lo:
                disp[lo:hi] += xn - x
            if jac:
                j11, j12, j21, j22 = jac
                ld = np.log(np.abs(j11 * j22 - j12 * j21))
                sums[2] += np.where(np.isfinite(ld), ld, SATURATION * 2.0)
                prod0, prod1 = (j11 * prod0 + j12 * prod1,
                                j21 * prod0 + j22 * prod1)
                if (t + 1 - lyap0) % QR_CADENCE == 0:
                    p11, p12, p21, p22, d1, d2 = ob._gram_schmidt_batch(
                        *prod0, *prod1, sums[2])
                    prod0, prod1 = np.array([p11, p12]), np.array([p21, p22])
                    sat = SATURATION * QR_CADENCE
                    sums[0] += np.where(np.isfinite(d1), d1, sat)
                    sums[1] += np.where(np.isfinite(d2), d2, sat)
                    sums[2] = 0.0
            x, y = np.remainder(xn, TWO_PI), yn
    for pos in range(cols.size):
        finish(pos, None)
    out = []
    for c in range(m):
        if escaped[c]:
            out.append(None)
            continue
        rhos = [d / (TWO_PI * n_rot) for d, ok in
                zip(final_disp[:, c].tolist(), seed_ok[:, c]) if ok]
        out.append((np.column_stack((rec_x[:, c], rec_y[:, c])),
                    estimates[c], rhos))
    return out


def classify_batch(lams, ks, base_params: ModelParams, pert: Perturbation,
                   budget: Budget = Budget()) -> list[RegimeCell]:
    """orbits._label on every cell of one per-step lockstep.

    Contract: bits.  orbits.classify_batch must equal it with repr ==.
    """
    params = [base_params.with_k_omega(k).with_lambda(lam)
              for lam, k in zip(lams, ks)]
    first, half = ob._recorded_range(budget.n_iter)
    return [ob._label(lam, k, p.delta, run, half - first)
            for lam, k, p, run in zip(lams, ks, params,
                                      lockstep(params, pert, budget))]
