"""Orbit statistics and regime classification for the return map.

Provides iteration with escape bookkeeping, QR-renormalized Lyapunov
exponents, lift-displacement rotation sets, a periodic-cycle check,
per-cell regime classification in lockstep batches, and scans over the
(lambda, K_omega) parameter plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (TWO_PI, CylinderPoint, EscapeError, ModelParams,
                    OrbitRecord, Perturbation, circle_gap, jac_return,
                    return_map)

SATURATION = -50.0  # per-iterate log-contraction below this is reported as saturated
RECURRENCE_TOL = 1e-8  # period detection: recurrence distance of a sink
PERIOD_CAP = 64        # period detection: longest period looked for
PERIOD_TAIL = max(4 * PERIOD_CAP, 512)  # period detection: last points read
PERIOD_PREFILTER = 16  # period detection: pairs per candidate checked at once
LYAPUNOV_CAP = 20_000  # classify_batch: most Lyapunov steps, whatever n_iter
ROTATION_CAP = 2_000   # classify_batch: most lift steps per rotation seed
QR_CADENCE = 10        # steps between QR renormalizations
RECORD_CAP = 4_000_000  # classify_batch: most orbit points held at once
BLOCK_POINTS = 4096    # _lockstep: orbit points per block of steps
SINK_SETTLE = 400      # confirm_cycle: return-map steps before the cycle is read
CHI_THRESH = 5e-3      # _label: chi1 bound of chaos and of neutrality
CURVE_THRESH = 0.02    # _label: orbit thickness below this is a closed curve

REGIME_LABELS = ("InvariantCurve", "PeriodicSink", "TransientChaos",
                 "StrangeAttractorCandidate", "Escaped")


@dataclass(frozen=True)
class Budget:
    """Iterate counts for classification and scans."""

    n_iter: int = 100_000
    burn_in: int = 2_000


def iterate(params: ModelParams, pert: Perturbation, p0: CylinderPoint,
            n: int, burn_in: int = 0) -> OrbitRecord:
    """n post-burn-in iterates of the return map, truncated on escape."""
    if n < 0 or burn_in < 0:
        raise ValueError(f"need n >= 0 and burn_in >= 0, got n={n}, "
                         f"burn_in={burn_in}")
    p = CylinderPoint(float(p0.x) % TWO_PI, p0.y)
    try:
        for _ in range(burn_in):
            p = return_map(p, params, pert)
    except EscapeError as exc:
        return OrbitRecord(points=np.array([[exc.point.x, exc.point.y]]),
                           escaped=True, escape_index=0)
    pts = np.empty((n + 1, 2))
    pts[0] = (p.x, p.y)
    for i in range(1, n + 1):
        try:
            p = return_map(p, params, pert)
        except EscapeError:
            return OrbitRecord(points=pts[:i].copy(), escaped=True,
                               escape_index=i - 1)
        pts[i] = (p.x, p.y)
    return OrbitRecord(points=pts, escaped=False, escape_index=None)


@dataclass(frozen=True)
class LyapunovEstimate:
    chi1: float
    chi2: float
    n_iter: int
    saturated: bool = False
    # |chi1+chi2 - mean ln|det||: ln r22 is the log-determinant sum minus
    # ln r11, so both sides add the same log-determinants grouped two
    # ways, and this reads their rounding, unless a saturation value
    # replaced a non-finite ln r11 or ln r22
    det_consistency: float | None = None
    inconclusive: bool = False
    escaped_at: int | None = None  # step from p0, burn-in included, that escaped


def _gram_schmidt_2x2(p11: float, p12: float, p21: float, p22: float,
                      logdet: float):
    """QR of [[p11, p12], [p21, p22]] with diag(R) > 0, in plain floats.

    Returns (q11, q12, q21, q22, ln r11, ln r22).  r11 = |first column|; the
    second column of Q is the first turned by +-90 degrees, its sign chosen
    so that r22 > 0.  ln r22 is recovered as logdet - ln r11 (r11*r22 =
    |det|), which stays accurate when the contraction rate drives r22 below
    the resolvable range of the Gram-Schmidt subtraction.  A vanished first
    column gives Q = I and ln r11 = -inf.
    """
    r11 = math.hypot(p11, p21)
    if not r11 > 0.0:
        return 1.0, 0.0, 0.0, 1.0, -math.inf, math.inf
    q11, q21 = p11 / r11, p21 / r11
    sign = 1.0 if q11 * p22 - q21 * p12 >= 0.0 else -1.0
    d1 = math.log(r11)
    return q11, -sign * q21, q21, sign * q11, d1, logdet - d1


def lyapunov(params: ModelParams, pert: Perturbation, p0: CylinderPoint,
             n: int, burn_in: int = 1000) -> LyapunovEstimate:
    """Both Lyapunov exponents via QR-renormalized Jacobian products.

    One loop over plain floats: each step takes the image from return_map
    (the compiled float kernel's `image`, no derivatives) and each measured
    step the Jacobian from jac_return (its `step`, whose image is computed
    again and dropped), unpacked straight from its nested float tuples,
    folds the Jacobian into a 2x2 product and, every QR_CADENCE steps,
    re-orthonormalizes the product (Benettin et al. 1980).  An escape
    stops the run before the escaping step is counted; `escaped_at`
    reports it, and an escape before n/2 measured steps makes the estimate
    inconclusive.
    """
    if n < 0 or burn_in < 0:
        raise ValueError(f"need n >= 0 and burn_in >= 0, got n={n}, "
                         f"burn_in={burn_in}")
    p = CylinderPoint(float(p0.x) % TWO_PI, p0.y)
    l1 = l2 = logdet = batch_ld = 0.0
    p11, p12, p21, p22 = 1.0, 0.0, 0.0, 1.0
    escaped_at = None
    for i in range(burn_in + n):
        try:
            q = return_map(p, params, pert)
        except EscapeError:
            escaped_at = i
            break
        if i >= burn_in:
            (a, b), (c, d) = jac_return(p, params, pert)
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
        p = q
    done = max(0, (burn_in + n if escaped_at is None else escaped_at) - burn_in)
    return _lyapunov_estimate(l1, l2, batch_ld, (p11, p12, p21, p22), done,
                              n, escaped_at, logdet)


def _lyapunov_estimate(l1: float, l2: float, batch_ld: float, product: tuple,
                       done: int, n: int, escaped_at: int | None,
                       logdet: float | None = None) -> LyapunovEstimate:
    """The estimate from a QR run stopped after `done` of `n` measured steps.

    l1 and l2 are the sums so far, and `product` and batch_ld the Jacobian
    product and log-determinant since the last renormalization.  Only a
    run that keeps the log-determinant sum logdet (lyapunov, not
    classify_batch) reports det_consistency.
    """
    if done == 0 or (escaped_at is not None and done < n // 2):
        return LyapunovEstimate(math.nan, math.nan, done,
                                inconclusive=True, escaped_at=escaped_at)
    if done % QR_CADENCE:
        *_, d1, d2 = _gram_schmidt_2x2(*product, batch_ld)
        l1 += d1 if math.isfinite(d1) else SATURATION * (done % QR_CADENCE)
        l2 += d2 if math.isfinite(d2) else SATURATION * (done % QR_CADENCE)
    chi1, chi2 = sorted((l1 / done, l2 / done), reverse=True)
    saturated = chi2 < SATURATION
    cons = (None if saturated or logdet is None
            else abs(chi1 + chi2 - logdet / done))
    return LyapunovEstimate(chi1=chi1, chi2=max(chi2, SATURATION),
                            n_iter=done, saturated=saturated,
                            det_consistency=cons, escaped_at=escaped_at)


def rotation_set_2d(params: ModelParams, pert: Perturbation,
                    seeds, n: int) -> tuple[float, float]:
    """Min/max per-iterate lift displacement over the non-escaping seeds.

    Each seed follows the return map's own orbit; the lift adds up the
    unwrapped angle steps of that orbit (needs lam > 0).
    """
    if n < 1:
        raise ValueError(f"need n >= 1 lift steps, got n={n}")
    if not len(seeds):
        raise ValueError("need n_seeds >= 1 seeds, got an empty list")
    if params.lam <= 0.0:
        raise ValueError("lift displacement needs lambda > 0")
    image, scalars = pert._kernel[0], params._step_scalars
    rhos = []
    for p0 in seeds:
        x, y, disp = float(p0.x) % TWO_PI, float(p0.y), 0.0
        try:
            for _ in range(n):
                xhat, y = image(x, y, scalars)
                disp += xhat - x
                x = xhat % TWO_PI
        except EscapeError:
            continue
        rhos.append(disp / (TWO_PI * n))
    if not rhos:
        raise EscapeError(seeds[0])
    return float(min(rhos)), float(max(rhos))


@dataclass(frozen=True)
class CycleCheck:
    """Closure and multipliers of a candidate periodic cycle."""

    escaped: bool
    gap: float                       # |F^p(p) - p|, NaN after an escape
    multipliers: tuple[float, ...]   # sorted |eigenvalues| of D(F^p)(p)


def confirm_cycle(params: ModelParams, pert: Perturbation, p0: CylinderPoint,
                  period: int) -> CycleCheck:
    """Check whether the orbit of p0 settles on an attracting `period`-cycle.

    Runs `iterate` for SINK_SETTLE burn-in steps from p0 to a point p, then
    `period` more, and multiplies the Jacobians along the cycle as 2x2
    arrays.  The gap is
    |x' - x| (on the circle) + |y' - y| between F^p(p) and p; a cycle
    closes when it is small and attracts when every multiplier is below
    one.  An escape anywhere is reported as escaped, with NaN gap and
    multipliers.
    """
    orbit = iterate(params, pert, p0, period, burn_in=SINK_SETTLE)
    if orbit.escaped:
        return CycleCheck(True, math.nan, (math.nan, math.nan))
    cycle = [CylinderPoint(*xy) for xy in orbit.points.tolist()]
    jac = np.eye(2)
    for p in cycle[:-1]:
        jac = np.array(jac_return(p, params, pert)) @ jac
    p, q = cycle[0], cycle[-1]
    mults = sorted(float(m) for m in np.abs(np.linalg.eigvals(jac)))
    return CycleCheck(False, float(circle_gap(q.x, p.x)) + abs(q.y - p.y),
                      tuple(mults))


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeCell:
    """One labelled cell.  `thickness` is the curve test's fit
    (_orbit_thickness), NaN on the cells that do not reach that test."""

    lam: float
    k_omega: float
    label: str
    period: int | None = None
    chi1: float = math.nan
    chi2: float = math.nan
    thickness: float = math.nan
    rho_min: float = math.nan
    rho_max: float = math.nan
    escaped: bool = False

    @property
    def label_full(self) -> str:
        if self.label == "PeriodicSink" and self.period:
            return f"PeriodicSink({self.period})"
        return self.label


def _detect_period(tail: np.ndarray, tol: float, cap: int,
                   yscale: float) -> int | None:
    """Smallest p <= cap with recurrence |orbit_{n+p} - orbit_n| <= tol.

    Heights are compared relative to yscale (the orbit's own y-magnitude),
    angles on the circle.  The first PERIOD_PREFILTER pairs of every
    candidate are checked as one array first; the full check over all pairs
    runs only on the candidates that pass them.
    """
    m = len(tail)
    if m < 2 * cap:
        return None
    ys = tail[:, 1] / max(yscale, 1e-300)
    i = np.arange(min(PERIOD_PREFILTER, m - cap))
    ip = i + np.arange(1, cap + 1)[:, None]  # row p-1: the pairs (i, i + p)
    dx = circle_gap(tail[ip, 0], tail[i, 0])
    dy = np.abs(ys[ip] - ys[i])
    candidates = np.flatnonzero(((dx <= tol) & (dy <= tol)).all(axis=1)) + 1
    for p in candidates.tolist():
        dx = circle_gap(tail[p:, 0], tail[:-p, 0])
        dy = np.abs(ys[p:] - ys[:-p])
        if float(np.max(dx)) <= tol and float(np.max(dy)) <= tol:
            return p
    return None


def _orbit_thickness(tail: np.ndarray, lam: float, delta: float) -> float:
    """Transverse thickness of the orbit closure around a fitted closed curve.

    Heights are rescaled to v = y^(1/delta) / lambda, which is O(1) on the
    absorbing annulus; a degree-8 trigonometric polynomial v(x) is fitted and
    the residual sup-norm is the thickness.  An invariant circle gives a
    residual at the fit-error level; a chaotic band gives O(band width).
    A tail of fewer than 34 points, twice the fit's 17 coefficients,
    gives NaN, no thickness: 17 points are interpolated whatever their
    shape, and a fit with fewer residual degrees of freedom than
    coefficients still lays a thin curve through short chaotic orbits.
    """
    deg = 8
    if len(tail) < 2 * (2 * deg + 1):
        return math.nan
    x = tail[:, 0]
    v = tail[:, 1] ** (1.0 / delta) / lam
    cols = [np.ones_like(x)]
    for k in range(1, deg + 1):
        cols.append(np.cos(k * x))
        cols.append(np.sin(k * x))
    a_mat = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(a_mat, v, rcond=None)
    resid = v - a_mat @ coef
    return float(np.max(np.abs(resid)))


def _gram_schmidt_batch(p11, p12, p21, p22, logdet):
    """_gram_schmidt_2x2 of one 2x2 product per orbit, entries as arrays."""
    r11 = np.hypot(p11, p21)
    ok = r11 > 0.0
    r11 = np.where(ok, r11, 1.0)
    q11, q21 = p11 / r11, p21 / r11
    sign = np.where(q11 * p22 - q21 * p12 >= 0.0, 1.0, -1.0)
    d1 = np.where(ok, np.log(r11), -math.inf)
    return (np.where(ok, q11, 1.0), np.where(ok, -sign * q21, 0.0),
            np.where(ok, q21, 0.0), np.where(ok, sign * q11, 1.0),
            d1, logdet - d1)


def _lyapunov_block(jacobians: tuple, u0: int, n_lyap: int, sums: np.ndarray,
                    prod: np.ndarray, escapes: dict) -> dict:
    """Fold the Jacobians of measured steps u0, u0+1, ... into the run.

    jacobians holds (j11, j12, j21, j22), each of shape (steps, orbits),
    and u0 is a multiple of QR_CADENCE.  sums (rows l1, l2, batch_ld, as
    in lyapunov) and the products prod[i, j] = p_(i+1)(j+1) are updated in
    place.  escapes maps an orbit to the measured step of this block at
    which it escaped; returns its LyapunovEstimate, read from the state
    before that step.  Every sum adds in step order, as lyapunov does:
    batch_ld by np.cumsum within each renormalization interval, all
    intervals at once; the products are folded one step at a time and
    renormalized every QR_CADENCE steps.
    """
    j11, j12, j21, j22 = jacobians
    k, m = j11.shape
    ld = np.log(np.abs(j11 * j22 - j12 * j21))
    ld[~np.isfinite(ld)] = SATURATION * 2.0
    batch = np.zeros((-(-k // QR_CADENCE), QR_CADENCE, m))
    batch.reshape(-1, m)[:k] = ld
    batch = np.cumsum(batch, axis=1)  # batch_ld after step r of interval g
    jac = np.empty((k, 2, 2, 1, m))
    jac[:, 0, 0, 0], jac[:, 0, 1, 0], jac[:, 1, 0, 0], jac[:, 1, 1, 0] = (
        j11, j12, j21, j22)
    terms = np.empty((2, 2, 2, m))  # terms[i, j] = J[i, j] * P[j]
    at = {}
    for c, u in escapes.items():
        at.setdefault(u - u0, []).append(c)
    out = {}
    for u in range(k):
        for c in at.get(u, ()):
            g, r = divmod(u, QR_CADENCE)
            out[c] = _lyapunov_estimate(
                float(sums[0, c]), float(sums[1, c]),
                float(batch[g, r - 1, c]) if r else 0.0,
                tuple(prod[:, :, c].ravel().tolist()), u0 + u, n_lyap, u0 + u)
        np.multiply(jac[u], prod, out=terms)
        np.add(terms[:, 0], terms[:, 1], out=prod)
        if (u + 1) % QR_CADENCE == 0:
            p11, p12, p21, p22, d1, d2 = _gram_schmidt_batch(
                *prod.reshape(4, m), batch[u // QR_CADENCE, -1])
            prod[0, 0], prod[0, 1], prod[1, 0], prod[1, 1] = p11, p12, p21, p22
            sat = SATURATION * QR_CADENCE
            sums[0] += np.where(np.isfinite(d1), d1, sat)
            sums[1] += np.where(np.isfinite(d2), d2, sat)
    sums[2] = batch.reshape(-1, m)[k - 1] if k % QR_CADENCE else 0.0
    return out


def _lockstep(params: list, pert: Perturbation, budget: Budget) -> list:
    """Follow one orbit per cell, all cells in lockstep on the array kernel.

    Cell c's orbit starts at (0.5, lam_c), inside the absorbing annulus, and
    runs B = burn_in steps, then n = n_iter recorded steps (points[0..n]),
    then the L = min(n, LYAPUNOV_CAP) steps of the Lyapunov run from
    points[n].  The rotation seeds points[0], points[(n+1)//2] and
    points[n] each lift the next R = min(ROTATION_CAP, n) steps of the
    same orbit.  Per cell: None if the orbit escaped before points[n],
    else (points[first:] as in _recorded_range, the LyapunovEstimate, the
    rotation numbers of the seeds whose R steps did not escape).

    Each step advances every orbit by the array kernel's raw image alone,
    written with its cos, sin and Y into the buffers of a block of about
    BLOCK_POINTS points, and wraps the new angle into the buffer by
    np.remainder(x, 2pi), the rule of the float path's `%`.  Once per
    block, array passes over the block find the escapes (the first step
    with not Y > 0 or a new height above 1), copy out the recorded
    points, add up the seeds' lift steps and, in the Lyapunov run, compute
    the block's Jacobians and log-determinants and fold them into the
    QR-renormalized products (Benettin et al. 1980); Lyapunov blocks start
    at multiples of QR_CADENCE steps.  Every sum adds in step order, so
    every float is that of the per-step loop in tests/scalar_reference.py.
    An orbit's results are read at the step of its escape, and at the end
    of that block it is parked on (0.5, 1) with lam = K_omega = 0, where it
    stays finite and never escapes.
    """
    burn, n = budget.burn_in, budget.n_iter
    n_lyap, n_rot = min(n, LYAPUNOV_CAP), min(ROTATION_CAP, n)
    first, half = _recorded_range(n)
    rec0, lyap0, end = burn + first, burn + n, burn + n + n_lyap
    seed_starts = (burn, burn + half, burn + n)
    image, jac = pert._array_kernel
    xi, delta = params[0].xi, params[0].delta
    m = len(params)
    lam = np.array([p.lam for p in params])
    k_omega = np.array([p.k_omega for p in params])
    lam_k, k_k = lam.copy(), k_omega.copy()  # the kernel's: 0 once parked
    size = QR_CADENCE * min(max(1, BLOCK_POINTS // (QR_CADENCE * m)),
                            -(-end // QR_CADENCE))  # steps per block
    xs, ys = np.empty((size + 1, m)), np.empty((size + 1, m))
    xn, big_y = np.empty((size, m)), np.empty((size, m))
    trig = np.empty((len(pert._table[0]) * 2, size, m))
    # step i of a block: the image of (xs[i], ys[i]) into xn[i], ys[i + 1],
    # big_y[i], trig[:, i], and the remainder of xn[i] by 2pi into xs[i + 1]
    calls = [((xs[i], ys[i], lam_k, k_k, xi, delta, xn[i], ys[i + 1],
               big_y[i], tuple(trig[:, i])), (xn[i], TWO_PI, xs[i + 1]))
             for i in range(size)]
    xs[0], ys[0] = 0.5, lam
    rec_x, rec_y = np.empty((n + 1 - first, m)), np.empty((n + 1 - first, m))
    escape = {}  # cell: the step at which its orbit escaped
    disp = np.zeros((3, m))  # each seed's lift, fixed once its window closes
    # the Lyapunov run's sums (l1, l2, batch_ld) and product P,
    # P[i, j] = p_(i+1)(j+1), and the estimates of the orbits it lost
    sums, prod = np.zeros((3, m)), np.zeros((2, 2, m))
    prod[0, 0] = prod[1, 1] = 1.0
    estimates = {}
    blocks = [(t, min(t + size, lyap0)) for t in range(0, lyap0, size)]
    blocks += [(t, min(t + size, end)) for t in range(lyap0, end, size)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t0, t1 in blocks:
            k = t1 - t0
            for args, remainder in calls[:k]:
                image(*args)
                np.remainder(*remainder)
            alive = (big_y[:k] > 0.0) & (ys[1:k + 1] <= 1.0)
            dead = np.flatnonzero(~alive.all(axis=0))
            escape.update(zip(dead.tolist(),
                              (t0 + alive[:, dead].argmin(axis=0)).tolist()))
            if t0 <= lyap0 and t1 >= rec0:
                a, b = max(t0, rec0), min(t1, lyap0) + 1
                rec_x[a - rec0:b - rec0] = xs[a - t0:b - t0]
                rec_y[a - rec0:b - rec0] = ys[a - t0:b - t0]
            steps = xn[:k] - xs[:k]
            for j, s in enumerate(seed_starts):
                a, b = max(t0, s), min(t1, s + n_rot)
                if a < b:
                    disp[j] = np.cumsum(np.concatenate(
                        (disp[j][None], steps[a - t0:b - t0])), axis=0)[-1]
            if t0 >= lyap0:
                estimates.update(_lyapunov_block(
                    jac(tuple(trig[:, :k]), ys[:k], big_y[:k], lam, k_omega,
                        delta), t0 - lyap0, n_lyap, sums, prod,
                    {c: t - lyap0 for c, t in escape.items() if t >= t0}))
            # park the orbits that escaped in this block (they turn by xi)
            if dead.size:
                xs[k, dead], ys[k, dead] = 0.5, 1.0
                lam_k[dead] = k_k[dead] = 0.0
                prod[:, :, dead], sums[:, dead] = np.eye(2)[..., None], 0.0
            xs[0], ys[0] = xs[k], ys[k]
            if len(escape) == m:
                break
    out = []
    for c in range(m):
        t = escape.get(c, end)
        if t < lyap0:
            out.append(None)
            continue
        est = estimates.get(c) or _lyapunov_estimate(
            *sums[:, c].tolist(), tuple(prod[:, :, c].ravel().tolist()),
            n_lyap, n_lyap, None)
        rhos = [d / (TWO_PI * n_rot) for d, s in
                zip(disp[:, c].tolist(), seed_starts) if t >= s + n_rot]
        out.append((np.column_stack((rec_x[:, c], rec_y[:, c])), est, rhos))
    return out


def _recorded_range(n: int) -> tuple[int, int]:
    """(first, half): classify_batch keeps points[first:] of points[0..n].

    Period detection reads the last min(n+1, PERIOD_TAIL) points and, on
    the cells that reach the curve test, the thickness fit reads
    points[half:], half = (n+1)//2.  Every cell keeps the second half,
    since which cells reach that test is known only after the run.
    """
    half = (n + 1) // 2
    return min(half, n + 1 - min(n + 1, PERIOD_TAIL)), half


def _label(lam: float, k_omega: float, delta: float, run,
           half: int) -> RegimeCell:
    """The decision tree on one cell's lockstep run; points[half:] is the
    second half of the orbit.  The thickness is fitted only where the curve
    test reads it, and is NaN elsewhere."""
    if run is None:
        return RegimeCell(lam, k_omega, "Escaped", escaped=True)
    points, est, rhos = run
    tail = points[-PERIOD_TAIL:]
    period = _detect_period(tail, RECURRENCE_TOL, PERIOD_CAP,
                            float(np.max(tail[:, 1])))
    rho = (min(rhos), max(rhos)) if rhos else (math.nan, math.nan)
    common = dict(chi1=est.chi1, chi2=est.chi2, rho_min=rho[0],
                  rho_max=rho[1])
    if period is not None:
        return RegimeCell(lam, k_omega, "PeriodicSink", period=period, **common)
    if est.chi1 > CHI_THRESH:
        return RegimeCell(lam, k_omega, "StrangeAttractorCandidate", **common)
    if not abs(est.chi1) <= CHI_THRESH:  # NaN chi1 included
        return RegimeCell(lam, k_omega, "TransientChaos", **common)
    thick = _orbit_thickness(points[half:], lam, delta)
    label = "InvariantCurve" if thick < CURVE_THRESH else "TransientChaos"
    return RegimeCell(lam, k_omega, label, thickness=thick, **common)


def classify_batch(lams, ks, base_params: ModelParams, pert: Perturbation,
                   budget: Budget = Budget()) -> list[RegimeCell]:
    """Label (lams[i], ks[i]) parameter cells, one lockstep orbit per cell.

    Decision tree: detected period -> PeriodicSink; chi1 above threshold ->
    StrangeAttractorCandidate; chi1 not within CHI_THRESH of 0 (NaN
    included) -> TransientChaos; else a thin orbit closure ->
    InvariantCurve, otherwise TransientChaos.  An escape before the end of
    the recorded orbit -> Escaped; a later one ends the Lyapunov run
    (inconclusive before half of it) and drops the rotation seeds it cuts
    short.  See _lockstep for the orbit: every cell steps by its image
    alone, and the Lyapunov run's Jacobians, log-determinants and QR
    products are computed once per block from the stepped orbit.  Period
    detection runs per cell on the stored tail, and the thickness fit on
    the stored second half only for cells that reach the curve test;
    elsewhere `thickness` is NaN.  A cell's result does not depend on the
    other cells of the call or on the block size.
    """
    if budget.n_iter < 1 or budget.burn_in < 0:
        raise ValueError(f"need n_iter >= 1 and burn_in >= 0, got "
                         f"n_iter={budget.n_iter}, burn_in={budget.burn_in}")
    lams, ks = [float(v) for v in lams], [float(v) for v in ks]
    if len(lams) != len(ks):
        raise ValueError(f"{len(lams)} lambdas for {len(ks)} K_omega values")
    params = [base_params.with_k_omega(k).with_lambda(lam)
              for lam, k in zip(lams, ks)]
    first, half = _recorded_range(budget.n_iter)
    per_run = max(1, RECORD_CAP // (budget.n_iter + 1 - first))
    cells = []
    for lo in range(0, len(params), per_run):
        runs = _lockstep(params[lo:lo + per_run], pert, budget)
        cells += [_label(lam, k, p.delta, run, half - first)
                  for lam, k, p, run in zip(lams[lo:], ks[lo:],
                                            params[lo:lo + per_run], runs)]
    return cells


def classify_cell(lam: float, k_omega: float, base_params: ModelParams,
                  pert: Perturbation, budget: Budget = Budget()) -> RegimeCell:
    """Label one (lambda, K_omega) parameter cell: classify_batch of one."""
    return classify_batch([lam], [k_omega], base_params, pert, budget)[0]


@dataclass(frozen=True)
class ScanResult:
    lam_grid: np.ndarray
    k_grid: np.ndarray
    cells: list  # row-major [i][j] over (lam, k_omega)
    t2_hat: dict  # per-K column: largest lam still InvariantCurve
    t1_hat: dict  # per-K column: smallest lam labelled StrangeAttractorCandidate
    ordered: bool


def scan(lam_grid, k_grid, base_params: ModelParams, pert: Perturbation,
         budget: Budget = Budget()) -> ScanResult:
    """Classify every (lambda, K_omega) cell as one classify_batch call.

    Cells are row-major over the sorted grids, so the output does not depend
    on the order the grid values are given in.
    """
    lam_grid = np.asarray(sorted(lam_grid), dtype=float)
    k_grid = np.asarray(sorted(k_grid), dtype=float)
    flat = classify_batch([lam for lam in lam_grid for _ in k_grid],
                          [k for _ in lam_grid for k in k_grid],
                          base_params, pert, budget)
    cells = [flat[i * len(k_grid):(i + 1) * len(k_grid)]
             for i in range(len(lam_grid))]
    t2_hat, t1_hat = {}, {}
    for j, k in enumerate(k_grid):
        col = [cells[i][j] for i in range(len(lam_grid))]
        ic = [c.lam for c in col if c.label == "InvariantCurve"]
        sa = [c.lam for c in col if c.label == "StrangeAttractorCandidate"]
        if ic:
            t2_hat[float(k)] = max(ic)
        if sa:
            t1_hat[float(k)] = min(sa)
    ordered = all(t2_hat[k] <= t1_hat[k]
                  for k in t2_hat if k in t1_hat)
    return ScanResult(lam_grid=lam_grid, k_grid=k_grid, cells=cells,
                      t2_hat=t2_hat, t1_hat=t1_hat, ordered=ordered)


SCAN_CSV_COLUMNS = ("lambda", "K_omega", "label", "chi1", "chi2", "period",
                    "rho_min", "rho_max", "escaped")


def scan_rows(result: ScanResult):
    """Flatten a scan into CSV rows (see SCAN_CSV_COLUMNS)."""
    rows = []
    for i in range(len(result.lam_grid)):
        for j in range(len(result.k_grid)):
            c = result.cells[i][j]
            rows.append((repr(c.lam), repr(c.k_omega), c.label_full,
                         f"{c.chi1:.12g}", f"{c.chi2:.12g}",
                         c.period if c.period is not None else "",
                         f"{c.rho_min:.12g}", f"{c.rho_max:.12g}",
                         "1" if c.escaped else "0"))
    return rows
