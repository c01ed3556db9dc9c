"""Circle-map family of the singular limit and its certification machinery.

The family is h_a(x) = x + xi + a - K_omega * ln(Phi2(x, 0)) (mod 2pi).
This module finds its critical set, runs finite-horizon Misiurewicz and
Collet-Eckmann checks, estimates rotation intervals, builds monotonicity
partitions / transition matrices, handles the lambda-sequences that connect
the one- and two-dimensional pictures, and searches for superstable orbits.

All certificates here are finite-horizon numerical evidence, not proofs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import TWO_PI, ModelParams, Perturbation, TrigPoly, wrap_angle

DEFAULT_GRID = 1 << 14
ROOT_TOL = 1e-12
MORSE_TOL = 1e-8


class NonMorseError(ValueError):
    """A critical point with vanishing second derivative was detected."""


class EmptyCriticalSetError(ValueError):
    """Operation requires a non-invertible map (nonempty critical set)."""


@dataclass(frozen=True)
class CircleMapFamily:
    """Family h_a(x) = x + xi + a - k_omega * ln(phi2_section(x)).

    The parameter a acts as a rigid rotation, so the critical set does not
    depend on a: `critical_set` is computed once per family and shared by
    every check.
    """

    xi: float
    k_omega: float
    phi2_section: TrigPoly

    @functools.cached_property
    def critical_set(self) -> "CriticalSet":
        """critical_points(self) on the default grid, computed on first use."""
        return critical_points(self)

    def lift(self, a: float, xhat):
        """Continuous degree-one lift (no mod reduction)."""
        val = self.phi2_section(xhat)
        if np.any(np.asarray(val) <= 0.0):
            raise ValueError("Phi2 section must be strictly positive")
        return xhat + self.xi + a - self.k_omega * np.log(val)

    def val(self, a: float, x):
        """Circle value in [0, 2pi)."""
        out = np.mod(self.lift(a, x), TWO_PI)
        return float(out) if np.ndim(out) == 0 else out

    def deriv(self, x):
        """h' (independent of a)."""
        p = self.phi2_section
        return 1.0 - self.k_omega * p.d1(x) / p(x)

    def deriv2(self, x):
        """h'' (independent of a)."""
        p = self.phi2_section
        v, d1, d2 = p(x), p.d1(x), p.d2(x)
        return -self.k_omega * (d2 * v - d1 * d1) / (v * v)


def family_from_model(params: ModelParams, pert: Perturbation) -> CircleMapFamily:
    """Singular-limit family of a model: section is Phi2 at y = 0."""
    return CircleMapFamily(xi=params.xi, k_omega=params.k_omega,
                           phi2_section=pert.phi2.section())


@dataclass(frozen=True)
class CriticalSet:
    """Sorted critical points of the family with their second derivatives."""

    points: np.ndarray
    second_derivs: np.ndarray

    @property
    def q(self) -> int:
        return len(self.points)

    def distance(self, x) -> float | np.ndarray:
        """Circular distance to the nearest critical point (inf if empty)."""
        if self.q == 0:
            return np.inf if np.ndim(x) == 0 else np.full(np.shape(x), np.inf)
        x = np.asarray(x, dtype=float)
        d = np.abs(np.mod(x[..., None] - self.points + math.pi, TWO_PI) - math.pi)
        out = d.min(axis=-1)
        return float(out) if out.ndim == 0 else out


def critical_points(family: CircleMapFamily, grid: int = DEFAULT_GRID) -> CriticalSet:
    """All roots of h' in [0, 2pi), bracketed on a grid and polished.

    Bisection narrows each bracket, a Newton step finishes to |h'| <= 1e-12.
    Degenerate roots (|h''| < 1e-8) raise NonMorseError.
    """
    xs = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    vals = np.asarray(family.deriv(xs))
    step = TWO_PI / grid
    roots = []
    for i in np.nonzero(vals * np.roll(vals, -1) < 0.0)[0]:
        lo, hi = xs[i], xs[i] + step
        flo = family.deriv(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = family.deriv(mid)
            if flo * fm <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        root = 0.5 * (lo + hi)
        for _ in range(8):
            d2 = family.deriv2(root)
            if d2 == 0.0:
                break
            root -= family.deriv(root) / d2
        if abs(family.deriv(root)) > ROOT_TOL:
            root = 0.5 * (lo + hi)  # Newton wandered; keep the bisection root
        d2 = family.deriv2(root)
        if abs(d2) < MORSE_TOL:
            raise NonMorseError(f"non-Morse configuration near x={root}")
        roots.append((wrap_angle(root), d2))
    roots.sort()
    pts = np.array([r for r, _ in roots])
    d2s = np.array([d for _, d in roots])
    return CriticalSet(points=pts, second_derivs=d2s)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    condition: str
    passed: bool
    witness: object = None

    def to_dict(self) -> dict:
        return {"condition": self.condition, "pass": bool(self.passed),
                "witness": self.witness}


@dataclass
class MisiurewiczCertificate:
    """Finite-horizon evidence for the Misiurewicz-type conditions.

    A PASS means every sampled orbit satisfied the inequalities with the
    stated constants up to the horizon; it is evidence, not a proof.
    """

    a: float
    delta0: float
    b0: float
    lambda0: float
    horizon: int
    verdicts: list[Verdict]
    vacuous: bool = False
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_report(self) -> dict:
        return {
            "kind": "misiurewicz-certificate",
            "constants": {"a": self.a, "delta0": self.delta0, "b0": self.b0,
                          "lambda0": self.lambda0, "vacuous": self.vacuous},
            "horizon": self.horizon,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "provenance": self.provenance,
        }


def misiurewicz_check(family: CircleMapFamily, a: float, delta0: float = 0.05,
                      horizon: int = 50, n_seeds: int = 32,
                      seed: int = 0) -> MisiurewiczCertificate:
    """Finite-horizon Misiurewicz-type certificate at parameter a.

    Checks (1a) nondegeneracy of h'' near the critical set, (1b) critical
    orbits stay delta0 away from it, and calibrates (lambda0, b0) for the
    expansion conditions (2a)/(2b): lambda0 is the least-squares slope of
    the log-derivative growth over seeded orbits, b0 the largest prefactor
    for which both inequalities hold on all samples.  With an empty critical
    set the geometric conditions pass vacuously and lambda0 is the uniform
    expansion estimate min_x ln|h'(x)|.
    """
    if horizon < 1 or delta0 <= 0.0:
        raise ValueError("need horizon >= 1 and delta0 > 0")
    crit = family.critical_set
    prov = {"grid": DEFAULT_GRID, "seeds": n_seeds,
            "tolerances": {"delta0": delta0, "root_tol": ROOT_TOL,
                           "morse_tol": MORSE_TOL}, "rng_seed": seed}
    xs = np.linspace(0.0, TWO_PI, DEFAULT_GRID, endpoint=False)

    if crit.q == 0:
        lam0 = float(np.min(np.log(np.abs(family.deriv(xs)))))
        verdicts = [
            Verdict("1a-nondegenerate-turns", True, "vacuous: empty critical set"),
            Verdict("1b-critical-orbit-avoidance", True, "vacuous"),
            Verdict("2a-expansion", lam0 > 0.0, {"lambda0": lam0}),
            Verdict("2b-return-expansion", lam0 > 0.0,
                    {"lambda0": lam0} if lam0 > 0.0 else
                    {"lambda0": lam0, "note": "expansion failure"}),
        ]
        return MisiurewiczCertificate(a=a, delta0=delta0, b0=1.0, lambda0=lam0,
                                      horizon=horizon, verdicts=verdicts,
                                      vacuous=True, provenance=prov)

    # (1a): h'' bounded away from zero on the delta0-neighbourhood.
    worst_1a = math.inf
    for c in crit.points:
        loc = c + np.linspace(-delta0, delta0, 33)
        worst_1a = min(worst_1a, float(np.min(np.abs(family.deriv2(loc)))))
    v1a = Verdict("1a-nondegenerate-turns", worst_1a >= MORSE_TOL,
                  {"min_abs_h2": worst_1a})

    # (1b): forward critical orbits keep distance >= delta0 from the set.
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
    v1b = Verdict("1b-critical-orbit-avoidance", ok_1b,
                  {"min_dist": worst[0], "critical_index": worst[1], "n": worst[2]})

    # (lambda0, b0): least-squares slope of log-derivative growth, then the
    # largest prefactor making (2a)/(2b) hold on every sample.
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
    if len(arr) < 4:
        lam0, b0 = float("nan"), 0.0
        v2a = Verdict("2a-expansion", False, "insufficient expansion samples")
        v2b = Verdict("2b-return-expansion", False, "insufficient samples")
    else:
        slope, _ = np.polyfit(arr[:, 0], arr[:, 1], 1)
        lam0 = float(slope)
        # support-line intercepts: largest b0 making each inequality hold
        env_2a = float(np.min(arr[:, 1] - lam0 * arr[:, 0])) - math.log(delta0)
        if land_samples:
            land = np.array(land_samples, dtype=float)
            env_2b = float(np.min(land[:, 1] - lam0 * land[:, 0]))
        else:
            env_2b = env_2a
        b0 = math.exp(min(env_2a, env_2b))
        v2a = Verdict("2a-expansion", lam0 > 0.0 and b0 > 0.0,
                      {"lambda0": lam0, "b0": b0, "samples": len(arr)})
        v2b = Verdict("2b-return-expansion", lam0 > 0.0 and b0 > 0.0,
                      {"landing_samples": len(land_samples)})
    cert = MisiurewiczCertificate(a=a, delta0=delta0, b0=b0, lambda0=lam0,
                                  horizon=horizon, verdicts=[v1a, v1b, v2a, v2b],
                                  provenance=prov)
    return cert


@dataclass
class CEReport:
    """Collet-Eckmann verdicts per critical point up to a finite horizon."""

    a: float
    lambda_ce: float
    alpha: float
    horizon: int
    verdicts: list[Verdict]
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_report(self) -> dict:
        return {
            "kind": "collet-eckmann-report",
            "constants": {"a": self.a, "lambda": self.lambda_ce, "alpha": self.alpha},
            "horizon": self.horizon,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "provenance": self.provenance,
        }


def collet_eckmann_check(family: CircleMapFamily, a: float,
                         cert: MisiurewiczCertificate,
                         lambda_ce: float | None = None, alpha: float = 0.05,
                         horizon: int = 100) -> CEReport:
    """Check the slow-recurrence and derivative-growth conditions.

    Constants delta0, b0 come from a prior Misiurewicz certificate;
    lambda_ce defaults to lambda0/10 and must stay below lambda0/5.
    """
    if lambda_ce is None:
        lambda_ce = cert.lambda0 / 10.0
    if not lambda_ce < cert.lambda0 / 5.0:
        raise ValueError(f"need lambda_ce < lambda0/5 = {cert.lambda0 / 5.0}")
    crit = family.critical_set
    verdicts = []
    prov = {"grid": DEFAULT_GRID, "seeds": 0,
            "tolerances": {"delta0": cert.delta0, "b0": cert.b0}}
    if crit.q == 0:
        verdicts.append(Verdict("CE1", True, "vacuous: empty critical set"))
        verdicts.append(Verdict("CE2", True, "vacuous"))
        return CEReport(a, lambda_ce, alpha, horizon, verdicts, prov)
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
            cum += math.log(dv) if dv > 0.0 else -math.inf
            margin = cum - (math.log(2.0 * cert.b0 * cert.delta0) + lambda_ce * n)
            if margin < wit2[0]:
                wit2 = (margin, n)
            if margin < 0.0:
                ok2 = False
            x = family.val(a, x)
        verdicts.append(Verdict(f"CE1[c{ci}]", ok1,
                                {"tightest_margin": wit1[0], "n": wit1[1]}))
        verdicts.append(Verdict(f"CE2[c{ci}]", ok2,
                                {"tightest_log_margin": wit2[0], "n": wit2[1]}))
    return CEReport(a, lambda_ce, alpha, horizon, verdicts, prov)


# ---------------------------------------------------------------------------
# Rotation interval
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationInterval:
    rho_min: float
    rho_max: float
    error: float
    degenerate: bool

    @property
    def width(self) -> float:
        return self.rho_max - self.rho_min


def rotation_interval(family: CircleMapFamily, a: float, n_iter: int = 2000,
                      n_seeds: int = 16) -> RotationInterval:
    """Lift-displacement rotation numbers over evenly spaced seeds.

    A width below 2/n_iter is reported as a single (degenerate) rotation
    number; a wider interval is evidence for non-invertible chaotic dynamics.
    """
    if n_iter < 1000:
        raise ValueError("need n_iter >= 1000 for a stable estimate")
    rhos = []
    for x0 in np.linspace(0.0, TWO_PI, n_seeds, endpoint=False):
        xhat = float(x0)
        for _ in range(n_iter):
            xhat = family.lift(a, xhat)
        rhos.append((xhat - x0) / (TWO_PI * n_iter))
    lo, hi = float(min(rhos)), float(max(rhos))
    err = 1.0 / n_iter
    return RotationInterval(lo, hi, err, degenerate=(hi - lo) <= 2.0 / n_iter)


# ---------------------------------------------------------------------------
# Monotonicity partition and transition matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityPartition:
    """Intervals of monotonicity [c_i, c_i + gap_i] between critical points."""

    starts: np.ndarray
    gaps: np.ndarray

    @property
    def r(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class TransitionMatrix:
    q: np.ndarray  # 0/1 matrix
    primitive_n: int | None

    @property
    def primitive(self) -> bool:
        return self.primitive_n is not None


def monotonicity_partition(family: CircleMapFamily) -> MonotonicityPartition:
    crit = family.critical_set
    if crit.q == 0:
        raise EmptyCriticalSetError("diffeomorphism regime: no partition")
    starts = crit.points
    gaps = np.diff(np.append(starts, starts[0] + TWO_PI))
    return MonotonicityPartition(starts=starts, gaps=gaps)


def transition_matrix(family: CircleMapFamily, a: float,
                      partition: MonotonicityPartition,
                      primitive_cap: int = 64) -> TransitionMatrix:
    """q_im = 1 iff branch image h_a(J_i) contains J_m (lift arithmetic)."""
    r = partition.r
    q = np.zeros((r, r), dtype=int)
    for i in range(r):
        lo_end = family.lift(a, float(partition.starts[i]))
        hi_end = family.lift(a, float(partition.starts[i] + partition.gaps[i]))
        lo, hi = min(lo_end, hi_end), max(lo_end, hi_end)
        for m in range(r):
            alpha = float(partition.starts[m])
            beta = alpha + float(partition.gaps[m])
            k_min = math.ceil((lo - alpha) / TWO_PI - 1e-12)
            k_max = math.floor((hi - beta) / TWO_PI + 1e-12)
            if k_min <= k_max:
                q[i, m] = 1
    power = q.astype(bool)
    primitive_n = None
    for n in range(1, primitive_cap + 1):
        if power.all():
            primitive_n = n
            break
        power = (power @ q.astype(bool))
    return TransitionMatrix(q=q, primitive_n=primitive_n)


# ---------------------------------------------------------------------------
# lambda sequences and singular-limit convergence
# ---------------------------------------------------------------------------

def twist_of_lambda(k_omega: float, lam: float) -> float:
    """k(lam) = -K_omega * ln(lam), the angular twist accumulated at height lam."""
    return -k_omega * math.log(lam)


def lambda_sequences(k_omega: float, n: int, a: float) -> tuple[float, float]:
    """(lambda_n, lambda_(a,n)) with k(lambda_n) = 2*pi*n and k(lambda_(a,n)) = a mod 2pi."""
    if k_omega <= 0.0 or n < 1:
        raise ValueError("need k_omega > 0 and n >= 1")
    lam_n = math.exp(-TWO_PI * n / k_omega)
    lam_an = math.exp(-(a + TWO_PI * n) / k_omega)
    return lam_n, lam_an


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    lam: float
    value_err: float       # first component, sup over grid
    d1_err: float          # first finite differences of the first component
    d2_err: float          # second finite differences of the first component
    second_comp_err: float  # sup of the second component (limit is 0)
    excluded: int


def singular_limit_convergence(params: ModelParams, pert: Perturbation, a: float,
                               n_range: range, nx: int = 128, ny: int = 4,
                               ybar_max: float | None = None,
                               fd_step: float = 1e-6) -> list[ConvergenceRow]:
    """Error table for the convergence of the rescaled map to (h_a, 0).

    For each n the map at lam = lambda_(a,n) is compared with the limit
    h_a(x, ybar) = x + xi + a - K ln(ybar + Phi2(x, ybar)) on a grid of the
    forward-invariant strip; derivative errors use central differences of
    the difference function (step fd_step).  Grid points violating the
    domain condition are excluded and counted.
    """
    k = params.k_omega
    delta = params.delta
    phi2max = pert.phi2_max()
    rows = []
    for n in n_range:
        _, lam = lambda_sequences(k, n, a)
        cap = ybar_max
        if cap is None:
            cap = min(1.0, lam ** (delta - 1.0) * (1.0 + phi2max) ** delta)
        xs = np.linspace(0.0, TWO_PI, nx, endpoint=False)
        ys = np.linspace(0.0, cap, ny)
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        dk = twist_of_lambda(k, lam) - (a + TWO_PI * n)

        def diff1(x, ybar):
            """First-component difference, computed without catastrophic cancellation."""
            y = lam * ybar
            ln_map = np.log(ybar + pert.phi2(x, y))
            ln_lim = np.log(ybar + pert.phi2(x, ybar))
            return lam * pert.phi1(x, y) + dk + k * (ln_lim - ln_map)

        def comp2(x, ybar):
            y = lam * ybar
            return lam ** (delta - 1.0) * (ybar + pert.phi2(x, y)) ** delta

        domain_ok = (yg + np.asarray(pert.phi2(xg, lam * yg))) > 0.0
        excluded = int(np.sum(~domain_ok))
        h = fd_step
        g0 = diff1(xg, yg)
        gxp, gxm = diff1(xg + h, yg), diff1(xg - h, yg)
        gyp, gym = diff1(xg, yg + h), diff1(xg, yg - h)
        value_err = float(np.max(np.abs(g0[domain_ok])))
        d1 = np.maximum(np.abs(gxp - gxm), np.abs(gyp - gym)) / (2.0 * h)
        d1_err = float(np.max(d1[domain_ok]))
        d2 = np.maximum(np.abs(gxp - 2.0 * g0 + gxm),
                        np.abs(gyp - 2.0 * g0 + gym)) / (h * h)
        d2_err = float(np.max(d2[domain_ok]))
        second = comp2(xg, yg)
        second_err = float(np.max(second[domain_ok]))
        rows.append(ConvergenceRow(n=n, lam=lam, value_err=value_err,
                                   d1_err=d1_err, d2_err=d2_err,
                                   second_comp_err=second_err, excluded=excluded))
    return rows


def limit_extension_value(params: ModelParams, pert: Perturbation,
                          a: float, x: float, ybar: float) -> float:
    """First component of the singular-limit extension h_a(x, ybar) (lift)."""
    return (x + params.xi + a
            - params.k_omega * math.log(ybar + pert.phi2(x, ybar)))


# ---------------------------------------------------------------------------
# Superstable periodic orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperstableOrbit:
    a_star: float
    critical_point: float
    period: int
    winding: int
    residual: float        # |h^p(c) - c| on the circle
    deriv_residual: float  # |(h^p)'(c)| via chain rule
    lambdas: tuple[float, ...]


def _lift_iterate(family: CircleMapFamily, a: float, x0: float, p: int) -> float:
    """Lift of h_a^p at x0 (composition of lifts)."""
    x = x0
    for _ in range(p):
        x = family.lift(a, x)
    return x


def superstable_search(family: CircleMapFamily, period: int,
                       a_window: tuple[float, float] = (0.0, TWO_PI),
                       n_grid: int = 4096, n_lambdas: int = 8,
                       tol: float = 1e-10) -> list[SuperstableOrbit]:
    """Parameters a* with h_{a*}^p(c) = c at a critical point c.

    Brackets sign changes of g(a) = lift^p(c) - c - 2*pi*m over integer
    windings m on a dense a-grid, polishes by bisection to |g| <= tol, and
    returns each root with the pulled-back sequence
    lambda_n = exp((a* - 2*pi*n)/K_omega).
    """
    if period not in (1, 2):
        raise ValueError("supported periods: 1 and 2")
    crit = family.critical_set
    if crit.q == 0:
        raise EmptyCriticalSetError("superstable search needs critical points")
    a_lo, a_hi = a_window
    grid = np.linspace(a_lo, a_hi, n_grid)
    out = []
    for c in crit.points:
        c = float(c)
        g = np.array([_lift_iterate(family, float(av), c, period) - c for av in grid])
        m_lo = int(math.floor(g.min() / TWO_PI)) - 1
        m_hi = int(math.ceil(g.max() / TWO_PI)) + 1
        for m in range(m_lo, m_hi + 1):
            f = g - TWO_PI * m
            for i in np.nonzero(f[:-1] * f[1:] < 0.0)[0]:
                lo, hi = float(grid[i]), float(grid[i + 1])
                flo = f[i]
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    fm = _lift_iterate(family, mid, c, period) - c - TWO_PI * m
                    if flo * fm <= 0.0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                a_star = 0.5 * (lo + hi)
                res = abs(_lift_iterate(family, a_star, c, period) - c - TWO_PI * m)
                if res > tol:
                    continue
                # chain rule through the critical point: one factor is h'(c)
                dres = 1.0
                x = c
                for _ in range(period):
                    dres *= family.deriv(x)
                    x = family.val(a_star, x)
                lams = tuple(math.exp((a_star - TWO_PI * n) / family.k_omega)
                             for n in range(1, n_lambdas + 1))
                out.append(SuperstableOrbit(a_star=a_star, critical_point=c,
                                            period=period, winding=m,
                                            residual=res, deriv_residual=abs(dres),
                                            lambdas=lams))
    # deduplicate near-identical roots
    out.sort(key=lambda s: s.a_star)
    dedup: list[SuperstableOrbit] = []
    for s in out:
        if dedup and abs(s.a_star - dedup[-1].a_star) < 1e-8 \
                and abs(s.critical_point - dedup[-1].critical_point) < 1e-8:
            continue
        dedup.append(s)
    return dedup


def abundance_accepts_lambda0(lambda0: float) -> bool:
    """Expansion-threshold arithmetic for the surjectivity proposition."""
    return math.exp(lambda0) > math.log(10.0)


def abundance_conditions(family: CircleMapFamily, a_star: float,
                      cert: MisiurewiczCertificate) -> list[Verdict]:
    """Surjective-branch and expansion-threshold conditions at a*.

    (i) a prior Misiurewicz certificate passes; (ii) every monotone branch
    image covers the full circle; (iii) exp(lambda0) > ln 10.
    """
    verdicts = [Verdict("i-misiurewicz", cert.passed, {"a": cert.a})]
    try:
        part = monotonicity_partition(family)
        cover = []
        for i in range(part.r):
            lo_end = family.lift(a_star, float(part.starts[i]))
            hi_end = family.lift(a_star, float(part.starts[i] + part.gaps[i]))
            cover.append(abs(hi_end - lo_end) >= TWO_PI)
        verdicts.append(Verdict("ii-full-branch-images", all(cover),
                                {"branch_covers": cover}))
    except EmptyCriticalSetError:
        verdicts.append(Verdict("ii-full-branch-images", False,
                                "no critical points"))
    verdicts.append(Verdict("iii-expansion-threshold",
                            abundance_accepts_lambda0(cert.lambda0),
                            {"exp_lambda0": math.exp(cert.lambda0),
                             "ln10": math.log(10.0)}))
    return verdicts
