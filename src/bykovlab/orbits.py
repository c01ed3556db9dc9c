"""Orbit statistics and regime classification for the return map.

Provides iteration with escape bookkeeping, QR-renormalized Lyapunov
exponents, Birkhoff averages, empirical autocorrelation, lift-displacement
rotation sets, per-cell regime classification, and deterministic parallel
scans over the (lambda, K_omega) parameter plane.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (TWO_PI, CylinderPoint, EscapeError, ModelParams,
                    OrbitRecord, Perturbation, _return_step, jac_return,
                    return_map, wrap_angle)

SATURATION = -50.0  # per-iterate log-contraction below this is reported as saturated

REGIME_LABELS = ("InvariantCurve", "PeriodicSink", "TransientChaos",
                 "StrangeAttractorCandidate", "Escaped")


@dataclass(frozen=True)
class Budget:
    """Iterate counts and thresholds for classification and scans."""

    n_iter: int = 100_000
    burn_in: int = 2_000
    chi_thresh: float = 5e-3
    curve_thresh: float = 5e-3
    recurrence_tol: float = 1e-8
    period_cap: int = 64
    qr_cadence: int = 10


def iterate(params: ModelParams, pert: Perturbation, p0: CylinderPoint,
            n: int, burn_in: int = 0) -> OrbitRecord:
    """n post-burn-in iterates of the return map, truncated on escape."""
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
    transient: int
    n_iter: int
    cadence: int
    saturated: bool = False
    det_consistency: float | None = None  # |chi1+chi2 - mean ln|det||
    inconclusive: bool = False


def _qr_step(prod: np.ndarray, batch_logdet: float):
    """Orthonormalize a Jacobian-product batch; return Q and log-diagonals.

    The first log-diagonal comes from the QR factor directly.  The second is
    recovered as batch_logdet - ln r11 (identical since r11*r22 = ±det), which
    stays accurate when the contraction rate drives r22 below the resolvable
    range of the subtraction inside Householder QR.
    """
    q, r = np.linalg.qr(prod)
    s = np.sign(np.diag(r))
    s[s == 0.0] = 1.0
    d1 = math.log(abs(r[0, 0])) if r[0, 0] != 0.0 else -math.inf
    return q * s, np.array([d1, batch_logdet - d1])


def lyapunov(params: ModelParams, pert: Perturbation, p0: CylinderPoint,
             n: int, burn_in: int = 1000, cadence: int = 10,
             jac=None, step=None) -> LyapunovEstimate:
    """Both Lyapunov exponents via QR-renormalized Jacobian products.

    `jac` and `step` default to the return map and its analytic Jacobian;
    synthetic linear maps can be passed for harness tests.
    """
    if jac is None:
        jac = lambda p: jac_return(p, params, pert)
    if step is None:
        step = lambda p: return_map(p, params, pert)
    p = CylinderPoint(wrap_angle(p0.x), p0.y)
    try:
        for _ in range(burn_in):
            p = step(p)
    except EscapeError:
        return LyapunovEstimate(math.nan, math.nan, burn_in, 0, cadence,
                                inconclusive=True)
    logs = np.zeros(2)
    logdet = 0.0
    batch_ld = 0.0
    done = 0
    prod = np.eye(2)
    try:
        for i in range(n):
            try:
                j = jac(p)
            except (ZeroDivisionError, OverflowError):
                # height underflowed to zero: superexponential collapse,
                # the product is numerically singular from here on
                raise EscapeError(p)
            with np.errstate(divide="ignore"):
                _, ld = np.linalg.slogdet(j)
            ld = ld if np.isfinite(ld) else SATURATION * 2.0
            logdet += ld
            batch_ld += ld
            prod = j @ prod
            if (i + 1) % cadence == 0:
                prod, diag = _qr_step(prod, batch_ld)
                logs += np.where(np.isfinite(diag), diag, SATURATION * cadence)
                batch_ld = 0.0
            p = step(p)
            done = i + 1
    except EscapeError:
        if done < n // 2:
            return LyapunovEstimate(math.nan, math.nan, burn_in, done, cadence,
                                    inconclusive=True)
    if done % cadence:
        prod, diag = _qr_step(prod, batch_ld)
        logs += np.where(np.isfinite(diag), diag, SATURATION * (done % cadence))
    if done == 0:
        return LyapunovEstimate(math.nan, math.nan, burn_in, 0, cadence,
                                inconclusive=True)
    chi = np.sort(logs / done)[::-1]
    saturated = bool(chi[1] < SATURATION)
    chi2 = max(chi[1], SATURATION) if saturated else chi[1]
    mean_logdet = logdet / done
    cons = abs(float(chi[0] + chi[1]) - mean_logdet) if not saturated else None
    return LyapunovEstimate(chi1=float(chi[0]), chi2=float(chi2),
                            transient=burn_in, n_iter=done, cadence=cadence,
                            saturated=saturated, det_consistency=cons)


def birkhoff_average(orbit: OrbitRecord, observable) -> tuple[float, float]:
    """(time average, last-quarter drift) of an observable along the orbit.

    The drift is |mean over the last quarter - global mean|, a cheap
    convergence diagnostic; escaped orbits yield a flagged partial average
    (drift = nan).
    """
    vals = np.asarray(observable(orbit.points[:, 0], orbit.points[:, 1]),
                      dtype=float)
    if np.ndim(vals) == 0:
        vals = np.full(len(orbit.points), float(vals))
    mean = float(np.mean(vals))
    if orbit.escaped:
        return mean, math.nan
    q = max(1, len(vals) // 4)
    return mean, abs(float(np.mean(vals[-q:])) - mean)


def autocorrelation(orbit: OrbitRecord, observable, max_lag: int):
    """Normalized autocovariance and a fitted exponential decay rate.

    Returns (correlations[0..max_lag], tau, r_squared).  tau is the rate of
    the least-squares fit |rho_k| ~ exp(-k/tau) over lags with |rho| > 1e-3;
    r_squared records the fit quality (poor for periodic signals).
    """
    pts = orbit.points
    if len(pts) < 10 * max_lag:
        raise ValueError("orbit shorter than 10 * max_lag")
    vals = np.asarray(observable(pts[:, 0], pts[:, 1]), dtype=float)
    vals = vals - vals.mean()
    var = float(np.dot(vals, vals)) / len(vals)
    if var < 1e-30:
        return np.full(max_lag + 1, np.nan), math.nan, math.nan
    rho = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        rho[k] = float(np.dot(vals[:len(vals) - k], vals[k:])) / (len(vals) * var)
    ks = np.arange(1, max_lag + 1)
    mask = np.abs(rho[1:]) > 1e-3
    if mask.sum() < 2:
        return rho, 0.0, 1.0  # immediate decay: zero correlation time
    logs = np.log(np.abs(rho[1:][mask]))
    slope, intercept = np.polyfit(ks[mask], logs, 1)
    pred = slope * ks[mask] + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    tau = -1.0 / slope if slope < 0 else math.inf
    return rho, tau, r2


def rotation_set_2d(params: ModelParams, pert: Perturbation,
                    seeds, n: int) -> tuple[float, float]:
    """Min/max per-iterate lift displacement over the non-escaping seeds.

    Each seed follows the return map's own orbit; the lift adds up the
    unwrapped angle steps of that orbit (needs lam > 0).
    """
    if params.lam <= 0.0:
        raise ValueError("lift displacement needs lambda > 0")
    rhos = []
    for p0 in seeds:
        x, y, disp = wrap_angle(p0.x), p0.y, 0.0
        try:
            for _ in range(n):
                xhat, y = _return_step(x, y, params, pert)
                disp += xhat - x
                x = wrap_angle(xhat)
        except EscapeError:
            continue
        rhos.append(disp / (TWO_PI * n))
    if not rhos:
        raise EscapeError(seeds[0] if len(seeds) else CylinderPoint(0.0, 0.0))
    return float(min(rhos)), float(max(rhos))


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
    angles on the circle.
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


def classify_cell(lam: float, k_omega: float, base_params: ModelParams,
                  pert: Perturbation, budget: Budget = Budget(),
                  p0: CylinderPoint | None = None) -> RegimeCell:
    """Label one (lambda, K_omega) parameter cell.

    Decision tree: detected period -> PeriodicSink; chi1 above threshold ->
    StrangeAttractorCandidate; thin orbit closure with near-zero chi1 ->
    InvariantCurve; otherwise TransientChaos.  Escape anywhere -> Escaped.
    """
    params = base_params.with_k_omega(k_omega).with_lambda(lam)
    if p0 is None:
        p0 = CylinderPoint(0.5, lam)  # inside the absorbing annulus
    orbit = iterate(params, pert, p0, budget.n_iter, budget.burn_in)
    if orbit.escaped:
        return RegimeCell(lam, k_omega, "Escaped", escaped=True)
    tail_len = min(len(orbit.points), max(4 * budget.period_cap, 512))
    tail = orbit.points[-tail_len:]
    yscale = float(np.max(tail[:, 1]))
    period = _detect_period(tail, budget.recurrence_tol, budget.period_cap,
                            yscale)
    est = lyapunov(params, pert, CylinderPoint(*orbit.points[-1]),
                   min(budget.n_iter, 20_000), burn_in=0,
                   cadence=budget.qr_cadence)
    try:
        rho = rotation_set_2d(params, pert,
                              [CylinderPoint(*orbit.points[k])
                               for k in (0, len(orbit.points) // 2, -1)],
                              min(2000, budget.n_iter))
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


def _scan_worker(task):
    (i, j, lam, k_omega, params, pert, budget) = task
    return i, j, classify_cell(lam, k_omega, params, pert, budget)


@dataclass(frozen=True)
class ScanResult:
    lam_grid: np.ndarray
    k_grid: np.ndarray
    cells: list  # row-major [i][j] over (lam, k_omega)
    t2_hat: dict  # per-K column: largest lam still InvariantCurve
    t1_hat: dict  # per-K column: smallest lam labelled StrangeAttractorCandidate
    ordered: bool


def scan(lam_grid, k_grid, base_params: ModelParams, pert: Perturbation,
         budget: Budget = Budget(), threads: int = 1) -> ScanResult:
    """Classify every (lambda, K_omega) cell; deterministic for any thread count.

    Cells are independent work items; results are assembled by grid index so
    the output does not depend on completion order.
    """
    lam_grid = np.asarray(sorted(lam_grid), dtype=float)
    k_grid = np.asarray(sorted(k_grid), dtype=float)
    tasks = [(i, j, float(lam), float(k), base_params, pert, budget)
             for i, lam in enumerate(lam_grid)
             for j, k in enumerate(k_grid)]
    cells = [[None] * len(k_grid) for _ in lam_grid]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for i, j, cell in pool.map(_scan_worker, tasks, chunksize=1):
                cells[i][j] = cell
    else:
        for task in tasks:
            i, j, cell = _scan_worker(task)
            cells[i][j] = cell
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
                    "rho_min", "rho_max", "escaped_fraction")


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
