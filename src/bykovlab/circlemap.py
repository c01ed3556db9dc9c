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
import sys
from dataclasses import dataclass, field

import numpy as np

from .model import (TWO_PI, ModelParams, Perturbation, TrigPoly, _bisect,
                    _batch_constants, circle_gap, step_batch, wrap_angles)

DEFAULT_GRID = 1 << 14
ROOT_TOL = 1e-12
MORSE_TOL = 1e-8
LIMIT_GRID = (128, 4)    # singular_limit_convergence: strip grid, x by ybar
SUPERSTABLE_GRID = 4096  # superstable_search: a-grid points that bracket roots
SUPERSTABLE_TOL = 1e-10  # superstable_search: largest |g| of a kept root


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
        """critical_points(self), computed on first use."""
        return critical_points(self)

    def lift(self, a: float, xhat):
        """Continuous degree-one lift (no mod reduction)."""
        return self._lift(a, xhat, self.phi2_section(xhat))

    def _lift(self, a, xhat, val):
        """The lift at xhat, given val = Phi2(xhat)."""
        if np.any(np.asarray(val) <= 0.0):
            raise ValueError("Phi2 section must be strictly positive")
        return xhat + self.xi + a - self.k_omega * np.log(val)

    def val(self, a: float, x):
        """Circle value in [0, 2pi)."""
        out = np.mod(self.lift(a, x), TWO_PI)
        return float(out) if np.ndim(out) == 0 else out

    def orbit(self, a, x0, n: int) -> np.ndarray:
        """x0 and its n images under h_a, stacked on a last axis of n + 1.

        a and x0 broadcast against each other; the images are circle values.
        This is the one loop that follows circle orbits step by step.
        """
        x = np.array(np.broadcast_arrays(a, x0)[1], dtype=float)
        out = np.empty(x.shape + (n + 1,))
        out[..., 0] = x
        for k in range(1, n + 1):
            x = out[..., k] = self.val(a, x)
        return out

    def step(self, a, x) -> tuple[np.ndarray, np.ndarray]:
        """(val, deriv) at an array x from one evaluation of the section."""
        v, d1 = self.phi2_section.jet(x)
        return np.mod(self._lift(a, x, v), TWO_PI), 1.0 - self.k_omega * d1 / v

    def deriv(self, x):
        """h' (independent of a)."""
        v, d1 = self.phi2_section.jet(x)
        return 1.0 - self.k_omega * d1 / v

    def deriv2(self, x):
        """h'' (independent of a)."""
        v, d1, d2 = self.phi2_section.jet(x, 2)
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
        out = np.full(np.shape(x), np.inf)
        for c in self.points:
            out = np.minimum(out, circle_gap(x, c))
        return float(out) if out.ndim == 0 else out


def critical_points(family: CircleMapFamily) -> CriticalSet:
    """All roots of h' in [0, 2pi), bracketed on DEFAULT_GRID and polished.

    Bisection narrows all brackets at once, then up to 8 Newton steps finish
    each root to |h'| <= 1e-12 (a root whose Newton steps miss that keeps
    its bisection value).  Degenerate roots (|h''| < 1e-8) raise
    NonMorseError.
    """
    xs = np.linspace(0.0, TWO_PI, DEFAULT_GRID, endpoint=False)
    # brackets where h' < 0 flips, so a zero on a grid node ends one bracket
    neg = np.asarray(family.deriv(xs)) < 0.0
    lo = xs[np.nonzero(neg != np.roll(neg, -1))[0]]
    bisected = _bisect(family.deriv, lo, lo + TWO_PI / DEFAULT_GRID,
                       family.deriv(lo), 60)
    root, moving = bisected, np.ones(len(lo), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(8):
            d2 = family.deriv2(root)
            moving &= d2 != 0.0
            root = np.where(moving, root - family.deriv(root) / d2, root)
    # Newton wandered: keep the bisection root
    root = np.where(np.abs(family.deriv(root)) > ROOT_TOL, bisected, root)
    d2 = family.deriv2(root)
    flat = np.abs(d2) < MORSE_TOL
    if flat.any():
        raise NonMorseError(
            f"non-Morse configuration near x={root[np.argmax(flat)]}")
    pts = wrap_angles(root)
    order = np.argsort(pts, kind="stable")
    return CriticalSet(points=pts[order], second_derivs=d2[order])


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


def _math_log(x: np.ndarray) -> np.ndarray:
    """math.log of every entry; the vectorised np.log can differ by an ULP."""
    return np.fromiter(map(math.log, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def critical_orbit_distances(family: CircleMapFamily, a_values,
                             horizon: int) -> np.ndarray:
    """Distance to the critical set of h_a^n(c), n = 1..horizon.

    Shape (n_a, q, horizon): parameter, critical point, step.  One `orbit`
    call follows every critical point under every a.  Condition (1b) of
    `misiurewicz_scan` reads these alone, without any seed orbit.
    """
    crit = family.critical_set
    a_col = np.asarray(a_values, dtype=float).reshape(-1, 1)
    return crit.distance(family.orbit(a_col, crit.points, horizon)[..., 1:])


def misiurewicz_check(family: CircleMapFamily, a: float, delta0: float = 0.05,
                      horizon: int = 50, n_seeds: int = 32,
                      seed: int = 0) -> MisiurewiczCertificate:
    """Finite-horizon Misiurewicz-type certificate at parameter a.

    The one-parameter case of `misiurewicz_scan`.
    """
    return misiurewicz_scan(family, [a], delta0, horizon, n_seeds, seed)[0]


def misiurewicz_scan(family: CircleMapFamily, a_values, delta0: float = 0.05,
                     horizon: int = 50, n_seeds: int = 32,
                     seed: int = 0) -> list[MisiurewiczCertificate]:
    """Finite-horizon Misiurewicz-type certificates, one per parameter a.

    Checks (1a) nondegeneracy of h'' near the critical set, (1b) critical
    orbits stay delta0 away from it, and calibrates (lambda0, b0) for the
    expansion conditions (2a)/(2b): lambda0 is the least-squares slope of
    the log-derivative growth over seeded orbits, b0 the largest prefactor
    for which both inequalities hold on all samples.  Fewer than 4 samples,
    or samples of one segment length only, fail (2a)/(2b) as insufficient.
    With an empty critical set the geometric conditions pass vacuously and
    lambda0 is the uniform expansion estimate min_x ln|h'(x)|.

    Every a starts its seed orbits from the same `default_rng(seed)` draws,
    so a certificate does not depend on the other parameters of the call.
    (1b) comes from `critical_orbit_distances`; the seed orbits of all
    parameters advance in lockstep as one (n_a, n_seeds) array, one
    `CircleMapFamily.step` per step.
    """
    if horizon < 1 or delta0 <= 0.0:
        raise ValueError("need horizon >= 1 and delta0 > 0")
    if n_seeds < 1:
        raise ValueError(f"need n_seeds >= 1, got n_seeds={n_seeds}")
    a_values = list(a_values)
    crit = family.critical_set

    def provenance() -> dict:
        return {"grid": DEFAULT_GRID, "seeds": n_seeds,
                "tolerances": {"delta0": delta0, "root_tol": ROOT_TOL,
                               "morse_tol": MORSE_TOL}, "rng_seed": seed}

    if crit.q == 0:
        xs = np.linspace(0.0, TWO_PI, DEFAULT_GRID, endpoint=False)
        lam0 = float(np.min(np.log(np.abs(family.deriv(xs)))))
        return [MisiurewiczCertificate(
            a=a, delta0=delta0, b0=1.0, lambda0=lam0, horizon=horizon,
            verdicts=[
                Verdict("1a-nondegenerate-turns", True,
                        "vacuous: empty critical set"),
                Verdict("1b-critical-orbit-avoidance", True, "vacuous"),
                Verdict("2a-expansion", lam0 > 0.0, {"lambda0": lam0}),
                Verdict("2b-return-expansion", lam0 > 0.0,
                        {"lambda0": lam0} if lam0 > 0.0 else
                        {"lambda0": lam0, "note": "expansion failure"}),
            ], vacuous=True, provenance=provenance()) for a in a_values]

    # (1a): h'' bounded away from zero on the delta0-neighbourhood.
    loc = crit.points[:, None] + np.linspace(-delta0, delta0, 33)
    worst_1a = float(np.min(np.abs(family.deriv2(loc))))

    # (1b): distances of the critical orbits, (parameter, critical point, n)
    crit_dist = critical_orbit_distances(family, a_values, horizon)

    # A seed orbit's step is a sample unless its point lies within delta0 of
    # the critical set or has h' = 0; such a step ends the current segment.
    # cum is the log-derivative sum over the current segment.  A sample is
    # a landing sample when the next point lies within delta0.
    n_a = len(a_values)
    a_col = np.array(a_values, dtype=float)[:, None]
    x0 = np.random.default_rng(seed).uniform(0.0, TWO_PI, n_seeds)
    x = np.broadcast_to(x0, (n_a, n_seeds))
    dist = crit.distance(x)
    sampled = np.empty((n_a, n_seeds, horizon), dtype=bool)
    cum_hist = np.empty((n_a, n_seeds, horizon))
    lands_next = np.empty((n_a, n_seeds, horizon), dtype=bool)
    cum = np.zeros((n_a, n_seeds))
    for n in range(horizon):
        x, dh = family.step(a_col, x)
        d = np.abs(dh)
        reset = (dist < delta0) | (d == 0.0)
        cum = np.where(reset, 0.0, cum + _math_log(np.where(reset, 1.0, d)))
        dist = crit.distance(x)
        sampled[:, :, n] = ~reset
        cum_hist[:, :, n] = cum
        lands_next[:, :, n] = dist < delta0

    steps = np.arange(horizon)
    certs = []
    for i, a in enumerate(a_values):
        v1a = Verdict("1a-nondegenerate-turns", worst_1a >= MORSE_TOL,
                      {"min_abs_h2": worst_1a})

        # (1b): forward critical orbits keep distance >= delta0 from the set;
        # the witness is the first closest approach in (critical point, n)
        # order.
        flat = crit_dist[i].ravel()
        k = int(np.argmin(flat))
        v1b = Verdict("1b-critical-orbit-avoidance", not np.any(flat < delta0),
                      {"min_dist": float(flat[k]),
                       "critical_index": k // horizon, "n": k % horizon + 1})

        # (lambda0, b0): least-squares slope of log-derivative growth, then
        # the largest prefactor making (2a)/(2b) hold on every sample.
        # Samples are taken seed by seed, step by step; a sample's segment
        # length is its distance from the last non-sample step (or from -1).
        last_reset = np.maximum.accumulate(
            np.where(sampled[i], -1, steps), axis=1)
        mask = sampled[i].ravel()
        segs = (steps - last_reset).ravel()[mask].astype(float)
        cums = cum_hist[i].ravel()[mask]
        land = lands_next[i].ravel()[mask]
        # one segment length leaves the slope undetermined (rank-deficient fit)
        if len(segs) < 4 or segs.min() == segs.max():
            lam0, b0 = float("nan"), 0.0
            v2a = Verdict("2a-expansion", False, "insufficient expansion samples")
            v2b = Verdict("2b-return-expansion", False, "insufficient samples")
        else:
            slope, _ = np.polyfit(segs, cums, 1)
            lam0 = float(slope)
            # support-line intercepts: largest b0 making each inequality hold
            env_2a = float(np.min(cums - lam0 * segs)) - math.log(delta0)
            if land.any():
                env_2b = float(np.min(cums[land] - lam0 * segs[land]))
            else:
                env_2b = env_2a
            b0 = math.exp(min(env_2a, env_2b))
            v2a = Verdict("2a-expansion", lam0 > 0.0 and b0 > 0.0,
                          {"lambda0": lam0, "b0": b0, "samples": len(segs)})
            v2b = Verdict("2b-return-expansion", lam0 > 0.0 and b0 > 0.0,
                          {"landing_samples": int(land.sum())})
        certs.append(MisiurewiczCertificate(
            a=a, delta0=delta0, b0=b0, lambda0=lam0, horizon=horizon,
            verdicts=[v1a, v1b, v2a, v2b], provenance=provenance()))
    return certs


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
    if horizon < 1:
        raise ValueError(f"need horizon >= 1, got horizon={horizon}")
    crit = family.critical_set
    prov = {"grid": DEFAULT_GRID, "seeds": 0,
            "tolerances": {"delta0": cert.delta0, "b0": cert.b0}}
    if crit.q == 0:
        return CEReport(a, lambda_ce, alpha, horizon,
                        [Verdict("CE1", True, "vacuous: empty critical set"),
                         Verdict("CE2", True, "vacuous")], prov)
    # row ci is h^1(c), ..., h^horizon(c) for critical point c; each margin's
    # witness is its first smallest value
    x = family.orbit(a, crit.points, horizon)[:, 1:]
    n = np.arange(1, horizon + 1)
    # CE1: dist(h^n(c), critical set) vs min(delta0/2, 2 exp(-alpha n))
    bound1 = [min(cert.delta0 / 2.0, 2.0 * math.exp(-alpha * k)) for k in n]
    gap1 = crit.distance(x) - bound1
    # CE2: ln|(h^n)'(h(c))| vs ln(2 b0 delta0) + lambda_ce n
    d = np.abs(family.deriv(x))
    log_d = np.where(d > 0.0, _math_log(np.where(d > 0.0, d, 1.0)), -math.inf)
    gap2 = (np.cumsum(log_d, axis=1)
            - (math.log(2.0 * cert.b0 * cert.delta0) + lambda_ce * n))
    verdicts = []
    for ci in range(crit.q):
        k1, k2 = int(np.argmin(gap1[ci])), int(np.argmin(gap2[ci]))
        verdicts.append(Verdict(f"CE1[c{ci}]", not np.any(gap1[ci] < 0.0),
                                {"tightest_margin": float(gap1[ci, k1]),
                                 "n": k1 + 1}))
        verdicts.append(Verdict(f"CE2[c{ci}]", not np.any(gap2[ci] < 0.0),
                                {"tightest_log_margin": float(gap2[ci, k2]),
                                 "n": k2 + 1}))
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
    if n_seeds < 1:
        raise ValueError(f"need n_seeds >= 1, got n_seeds={n_seeds}")
    x0 = np.linspace(0.0, TWO_PI, n_seeds, endpoint=False)
    xhat = _lift_iterate(family, a, x0, n_iter)
    rhos = (xhat - x0) / (TWO_PI * n_iter)
    lo, hi = float(rhos.min()), float(rhos.max())
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
    alpha = partition.starts
    beta = alpha + partition.gaps
    ends = family.lift(a, np.stack([alpha, beta]))
    lo, hi = ends.min(axis=0)[:, None], ends.max(axis=0)[:, None]
    # row i is the branch image, column m the interval: some lift of J_m
    # fits inside h_a(J_i)
    k_min = np.ceil((lo - alpha) / TWO_PI - 1e-12)
    k_max = np.floor((hi - beta) / TWO_PI + 1e-12)
    q = (k_min <= k_max).astype(int)
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
    if lam_n == 0.0 or lam_an == 0.0:
        raise ValueError(f"lambda underflows to 0 at n={n}, "
                         f"K_omega={k_omega}: need a smaller n")
    return lam_n, lam_an


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    lam: float
    value_err: float        # angle gap to h_a on the ybar = 0 edge
    d1_err: float           # |j11 - h'| on the ybar = 0 edge
    second_comp_err: float  # largest rescaled height y'/lam over the strip
    excluded: int           # strip points with y + lam*Phi2 <= 0
    twist_offset: float     # -K ln(lam) - a - 2*pi*n: the twist's rounding


def _normal_scale(scale: float) -> bool:
    """Whether a strip scale lambda_(a,n)^(delta-1) is a normal float: a
    subnormal scale has lost bits, and a zero one collapses the strip."""
    return scale >= sys.float_info.min


def normal_strip_range(params: ModelParams, a: float, n_range: range) -> range:
    """The head of n_range that singular_limit_convergence tabulates.

    It runs up to the last n whose lambda_(a,n) is positive and whose strip
    scale lambda_(a,n)^(delta-1) is a normal float; both fall as n grows.
    Empty when the first n already fails.
    """
    for i, n in enumerate(n_range):
        try:
            lam = lambda_sequences(params.k_omega, n, a)[1]
        except ValueError:
            return n_range[:i]
        if not _normal_scale(lam ** (params.delta - 1.0)):
            return n_range[:i]
    return n_range


def singular_limit_convergence(params: ModelParams, pert: Perturbation, a: float,
                               n_range: range) -> list[ConvergenceRow]:
    """Error table for the convergence of the return map to (h_a, 0).

    One step_batch call steps the LIMIT_GRID grid of the strip y = lam*ybar,
    ybar in [0, min(1, lam^(delta-1) (1 + max Phi2)^delta)], at every
    lam = lambda_(a,n), and family_from_model's step gives h_a and h'.
    On the ybar = 0 edge value_err is the largest angle gap to h_a and
    d1_err the largest |j11 - h'|: lam*|Phi1(x, 0)| and lam*|Phi1_x(x, 0)|
    up to rounding.  second_comp_err is the largest y'/lam on the strip.
    Grid points with y + lam*Phi2 <= 0 are excluded and counted.  Raises
    ValueError, naming n and K_omega, where lambda_(a,n) underflows to 0
    or the strip scale lambda_(a,n)^(delta-1) is not a normal float.
    """
    if not n_range or n_range[0] < 1:
        raise ValueError(f"need 1 <= n_min <= n_max, got n_min="
                         f"{n_range.start}, n_max={n_range.stop - 1}")
    k, delta = params.k_omega, params.delta
    lams = [lambda_sequences(k, n, a)[1] for n in n_range]
    scales = [lam_n ** (delta - 1.0) for lam_n in lams]
    for n, s in zip(n_range, scales):
        if not _normal_scale(s):
            raise ValueError(f"strip scale lambda^(delta-1) = {s!r} is not a "
                             f"normal float at n={n}, K_omega={k}: need a "
                             "smaller n")
    # every (n, x, ybar) point as one flat batch with its own lam
    shape = (len(lams),) + LIMIT_GRID
    xg = np.linspace(0.0, TWO_PI, LIMIT_GRID[0], endpoint=False)
    top = (1.0 + pert.phi2_max()) ** delta
    yg = [np.linspace(0.0, min(1.0, s * top), LIMIT_GRID[1]) for s in scales]
    lam, x, ybar = (np.broadcast_to(v, shape).ravel() for v in
                    (np.array(lams)[:, None, None], xg[:, None],
                     np.array(yg)[:, None]))
    new_x, new_y, j11, *_, alive = step_batch(
        x, lam * ybar, lam, k, _batch_constants(params, pert))
    # a dead point with y + lam*Phi2 > 0 only left the strip |y| <= 1
    new_x, j11, height, ok = (v.reshape(shape) for v in (
        new_x, j11, new_y / lam, alive | (new_y > 1.0)))
    h, dh = family_from_model(params, pert).step(a, xg)
    errs = [np.max(e, axis=axis, where=w, initial=-np.inf).tolist()
            for e, w, axis in ((circle_gap(new_x[..., 0], h), ok[..., 0], 1),
                               (np.abs(j11[..., 0] - dh), ok[..., 0], 1),
                               (height, ok, (1, 2)))]
    excluded = np.count_nonzero(~ok, axis=(1, 2)).tolist()
    return [ConvergenceRow(n, lam_n, *e, out,
                           twist_of_lambda(k, lam_n) - (a + TWO_PI * n))
            for n, lam_n, *e, out in zip(n_range, lams, *errs, excluded)]


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
    lambdas: tuple[float, ...]  # lambda_(a*,n) for n = 1, 2, ...; decreasing


def _lift_iterate(family: CircleMapFamily, a, x0: float, p: int):
    """Lift of h_a^p at x0 (composition of lifts); a may be an array."""
    x = x0
    for _ in range(p):
        x = family.lift(a, x)
    return x


def superstable_search(family: CircleMapFamily, period: int,
                       a_window: tuple[float, float] = (0.0, TWO_PI),
                       n_lambdas: int = 8) -> list[SuperstableOrbit]:
    """Parameters a* with h_{a*}^p(c) = c at a critical point c.

    Brackets sign changes of g(a) = lift^p(c) - c - 2*pi*m over integer
    windings m on a SUPERSTABLE_GRID-point a-grid, polishes by bisection to
    |g| <= SUPERSTABLE_TOL, and returns each root with its pullbacks
    lambda_(a*,n) = exp(-(a* + 2*pi*n)/K_omega), n = 1..n_lambdas, from
    lambda_sequences: the 2D parameters whose twist -K_omega ln lambda is
    a* mod 2*pi.
    """
    if period not in (1, 2):
        raise ValueError("supported periods: 1 and 2")
    crit = family.critical_set
    if crit.q == 0:
        raise EmptyCriticalSetError("superstable search needs critical points")
    if n_lambdas < 1:
        raise ValueError(f"need n_lambdas >= 1, got n_lambdas={n_lambdas}")
    grid = np.linspace(a_window[0], a_window[1], SUPERSTABLE_GRID)
    # sign changes of g_m(a) = lift^p(c) - c - 2*pi*m on the grid, indexed
    # (critical point, winding, grid point); a winding outside the range
    # of one critical point's g brackets nothing
    pts = crit.points[:, None]
    g = _lift_iterate(family, grid, pts, period) - pts
    ms = np.arange(math.floor(g.min() / TWO_PI) - 1,
                   math.ceil(g.max() / TWO_PI) + 2)
    f = g[:, None, :] - TWO_PI * ms[:, None]
    # brackets where f < 0 flips, so a root on a grid node ends one bracket;
    # an exact zero on an end node also brackets with its one neighbour, as
    # f may leave zero into the window without flipping
    neg = f < 0.0
    flip = neg[..., :-1] != neg[..., 1:]
    flip[..., 0] |= f[..., 0] == 0.0
    flip[..., -1] |= f[..., -1] == 0.0
    ci, mi, i = np.nonzero(flip)
    c, m = crit.points[ci], ms[mi]

    def g_m(a):
        return _lift_iterate(family, a, c, period) - c - TWO_PI * m

    a_star = _bisect(g_m, grid[i], grid[i + 1], f[ci, mi, i], 80)
    res = np.abs(g_m(a_star))
    # chain rule through the critical point: one factor is h'(c)
    dres = np.prod(family.deriv(family.orbit(a_star, c, period - 1)), axis=-1)
    out = []
    for k in np.nonzero(~(res > SUPERSTABLE_TOL))[0]:
        a_k = float(a_star[k])
        lams = tuple(lambda_sequences(family.k_omega, n, a_k)[1]
                     for n in range(1, n_lambdas + 1))
        out.append(SuperstableOrbit(a_star=a_k, critical_point=float(c[k]),
                                    period=period, winding=int(m[k]),
                                    residual=float(res[k]),
                                    deriv_residual=float(abs(dres[k])),
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

