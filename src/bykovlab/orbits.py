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
                    OrbitRecord, Perturbation, _batch_constants, _image_step,
                    _step_constants, circle_gap, image_batch, jac_return,
                    return_map, step_batch, wrap_angle, wrap_angles)

SATURATION = -50.0  # per-iterate log-contraction below this is reported as saturated
RECURRENCE_TOL = 1e-8  # period detection: recurrence distance of a sink
PERIOD_CAP = 64        # period detection: longest period looked for
PERIOD_TAIL = max(4 * PERIOD_CAP, 512)  # period detection: last points read
PERIOD_PREFILTER = 16  # period detection: pairs per candidate checked at once
LYAPUNOV_CAP = 20_000  # classify_batch: most Lyapunov steps, whatever n_iter
ROTATION_CAP = 2_000   # classify_batch: most lift steps per rotation seed
QR_CADENCE = 10        # steps between QR renormalizations
RECORD_CAP = 4_000_000  # classify_batch: most orbit points held at once
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
    p = CylinderPoint(wrap_angle(p0.x), p0.y)
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
    det_consistency: float | None = None  # |chi1+chi2 - mean ln|det||
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
    (the image half of the return-step kernel, no derivatives) and each
    measured step the Jacobian entries from jac_return (the full kernel,
    whose image is computed again and dropped), folds the Jacobian into a
    2x2 product and, every QR_CADENCE steps, re-orthonormalizes the product
    (Benettin et al. 1980).  An escape stops the run before the escaping
    step is counted; `escaped_at` reports it, and an escape before n/2
    measured steps makes the estimate inconclusive.
    """
    if n < 0 or burn_in < 0:
        raise ValueError(f"need n >= 0 and burn_in >= 0, got n={n}, "
                         f"burn_in={burn_in}")
    p = CylinderPoint(wrap_angle(p0.x), p0.y)
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
            (a, b), (c, d) = jac_return(p, params, pert).tolist()
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
    return _lyapunov_estimate(l1, l2, logdet, batch_ld, (p11, p12, p21, p22),
                              done, n, escaped_at)


def _lyapunov_estimate(l1: float, l2: float, logdet: float, batch_ld: float,
                       product: tuple, done: int, n: int,
                       escaped_at: int | None) -> LyapunovEstimate:
    """The estimate from a QR run stopped after `done` of `n` measured steps.

    l1, l2 and logdet are the sums so far, and `product` and batch_ld the
    Jacobian product and log-determinant since the last renormalization.
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
    cons = None if saturated else abs(chi1 + chi2 - logdet / done)
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
    consts = _step_constants(params, pert)
    rhos = []
    for p0 in seeds:
        x, y, disp = wrap_angle(p0.x), float(p0.y), 0.0
        try:
            for _ in range(n):
                xhat, y = _image_step(x, y, consts)[:2]
                disp += xhat - x
                x = wrap_angle(xhat)
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
    `period` more, and multiplies the Jacobians along the cycle.  The gap is
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
        jac = jac_return(p, params, pert) @ jac
    p, q = cycle[0], cycle[-1]
    mults = sorted(float(m) for m in np.abs(np.linalg.eigvals(jac)))
    return CycleCheck(False, float(circle_gap(q.x, p.x)) + abs(q.y - p.y),
                      tuple(mults))


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeCell:
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
    """
    x = tail[:, 0]
    v = tail[:, 1] ** (1.0 / delta) / lam
    deg = 8
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


def _lockstep(params: list, pert: Perturbation, budget: Budget) -> list:
    """Follow one orbit per cell, all cells in lockstep on the array kernel.

    Cell c's orbit starts at (0.5, lam_c), inside the absorbing annulus, and
    runs B = burn_in steps, then n = n_iter recorded steps (points[0..n]),
    both through image_batch, then the L = min(n, LYAPUNOV_CAP) steps of
    the Lyapunov run from points[n] through step_batch.  The rotation seeds
    points[0], points[(n+1)//2] and points[n] each lift the next
    R = min(ROTATION_CAP, n) steps of the same orbit.  Per cell: None if the orbit escaped before points[n], else
    (points[first:] as in _recorded_range, the LyapunovEstimate, the
    rotation numbers of the seeds whose R steps did not escape).
    """
    burn, n = budget.burn_in, budget.n_iter
    n_lyap, n_rot = min(n, LYAPUNOV_CAP), min(ROTATION_CAP, n)
    first, half = _recorded_range(n)
    rec0, lyap0 = burn + first, burn + n
    seed_starts = (burn, burn + half, burn + n)
    # at each step where it changes, the range of seeds whose R lift steps
    # include that step
    windows = {t: (sum(t >= s + n_rot for s in seed_starts),
                   sum(t >= s for s in seed_starts))
               for s0 in seed_starts for t in (s0, s0 + n_rot)}
    consts = _batch_constants(params[0], pert)
    m = len(params)
    lam = np.array([p.lam for p in params])
    k_omega = np.array([p.k_omega for p in params])
    x, y = np.full(m, wrap_angle(0.5)), lam.copy()
    cols = np.arange(m)  # the cell of each live orbit
    rec_x, rec_y = np.empty((n + 1 - first, m)), np.empty((n + 1 - first, m))
    # per live orbit: the Jacobian product's rows (p11, p12) and (p21, p22),
    # lyapunov's sums (l1, l2, logdet, batch_ld) and each seed's lift
    prod0 = np.repeat([[1.0], [0.0]], m, axis=1)
    prod1 = np.repeat([[0.0], [1.0]], m, axis=1)
    sums = np.zeros((4, m))
    disp = np.zeros((3, m))
    escaped = np.zeros(m, dtype=bool)
    seed_ok = np.ones((3, m), dtype=bool)
    final_disp = np.zeros((3, m))
    estimates = [None] * m

    def finish(pos: int, escaped_at: int | None) -> None:
        c = cols[pos]
        l1, l2, logdet, batch_ld = sums[:, pos].tolist()
        done = n_lyap if escaped_at is None else escaped_at
        estimates[c] = _lyapunov_estimate(
            l1, l2, logdet, batch_ld,
            (*prod0[:, pos].tolist(), *prod1[:, pos].tolist()),
            done, n_lyap, escaped_at)
        final_disp[:, c] = disp[:, pos]

    lo = hi = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(lyap0 + n_lyap):
            if rec0 <= t <= lyap0:
                if cols.size == m:
                    rec_x[t - rec0], rec_y[t - rec0] = x, y
                else:
                    rec_x[t - rec0, cols], rec_y[t - rec0, cols] = x, y
            if t < lyap0:
                xn, yn, alive = image_batch(x, y, lam, k_omega, consts)
                jac = ()
            else:
                xn, yn, *jac, alive = step_batch(x, y, lam, k_omega, consts)
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
                sums[2:] += np.where(np.isfinite(ld), ld, SATURATION * 2.0)
                prod0, prod1 = (j11 * prod0 + j12 * prod1,
                                j21 * prod0 + j22 * prod1)
                if (t + 1 - lyap0) % QR_CADENCE == 0:
                    p11, p12, p21, p22, d1, d2 = _gram_schmidt_batch(
                        *prod0, *prod1, sums[3])
                    prod0, prod1 = np.array([p11, p12]), np.array([p21, p22])
                    sat = SATURATION * QR_CADENCE
                    sums[0] += np.where(np.isfinite(d1), d1, sat)
                    sums[1] += np.where(np.isfinite(d2), d2, sat)
                    sums[3] = 0.0
            x, y = wrap_angles(xn), yn
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


def _recorded_range(n: int) -> tuple[int, int]:
    """(first, half): classify_batch keeps points[first:] of points[0..n].

    Period detection reads the last min(n+1, PERIOD_TAIL) points and the
    thickness fit points[half:], half = (n+1)//2.
    """
    half = (n + 1) // 2
    return min(half, n + 1 - min(n + 1, PERIOD_TAIL)), half


def _label(lam: float, k_omega: float, delta: float, run,
           half: int) -> RegimeCell:
    """The decision tree on one cell's lockstep run; points[half:] is the
    second half of the orbit."""
    if run is None:
        return RegimeCell(lam, k_omega, "Escaped", escaped=True)
    points, est, rhos = run
    tail = points[-PERIOD_TAIL:]
    period = _detect_period(tail, RECURRENCE_TOL, PERIOD_CAP,
                            float(np.max(tail[:, 1])))
    thick = _orbit_thickness(points[half:], lam, delta)
    rho = (min(rhos), max(rhos)) if rhos else (math.nan, math.nan)
    common = dict(chi1=est.chi1, chi2=est.chi2, thickness=thick,
                  rho_min=rho[0], rho_max=rho[1])
    if period is not None:
        return RegimeCell(lam, k_omega, "PeriodicSink", period=period, **common)
    if est.chi1 > CHI_THRESH:
        return RegimeCell(lam, k_omega, "StrangeAttractorCandidate", **common)
    if thick < CURVE_THRESH and abs(est.chi1) <= CHI_THRESH:
        return RegimeCell(lam, k_omega, "InvariantCurve", **common)
    return RegimeCell(lam, k_omega, "TransientChaos", **common)


def classify_batch(lams, ks, base_params: ModelParams, pert: Perturbation,
                   budget: Budget = Budget()) -> list[RegimeCell]:
    """Label (lams[i], ks[i]) parameter cells, one lockstep orbit per cell.

    Decision tree: detected period -> PeriodicSink; chi1 above threshold ->
    StrangeAttractorCandidate; thin orbit closure with near-zero chi1 ->
    InvariantCurve; otherwise TransientChaos.  An escape before the end of
    the recorded orbit -> Escaped; a later one ends the Lyapunov run
    (inconclusive before half of it) and drops the rotation seeds it cuts
    short.  See _lockstep for the orbit; period detection and the
    thickness fit run per cell on the stored second half.  A cell's result
    does not depend on the other cells of the call.
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
