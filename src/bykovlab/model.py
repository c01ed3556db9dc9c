"""Model parameters, the perturbation pair and the first return map.

Coordinates live on the cylinder cross-section: an angle x (mod 2pi) and a
height y in [-1, 1].  The return map eta o psi_21 follows the perturbed
global transition psi_21(x, y) = (x + xi + lam*Phi1, y + lam*Phi2) by the
passage past both saddle-foci, eta(X, Y) = (X - K_omega ln Y, Y^delta).  One
float kernel, _return_step, evaluates the map and its Jacobian for one orbit;
its array twin, step_batch, steps many orbits at once with lam and K_omega
given per orbit.  The factored maps (each local passage, eta, psi_21 and
their Jacobians) and the finite-difference Jacobian are test references in
tests/scalar_reference.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


class InvalidParamsError(ValueError):
    """Eigenvalue data violates the saddle-focus orderings."""


class EscapeError(ValueError):
    """Point left the return domain (y + lam*Phi2 <= 0)."""

    def __init__(self, point):
        super().__init__(f"point escaped the return domain: {point}")
        self.point = point


def wrap_angle(x: float) -> float:
    """Reduce an angle to [0, 2pi) using exact remainder."""
    x = math.fmod(x, TWO_PI)
    if x < 0.0:
        x += TWO_PI
    return 0.0 if x >= TWO_PI else x


def wrap_angles(x: np.ndarray) -> np.ndarray:
    """wrap_angle of every entry: the same exact remainder, elementwise."""
    w = np.fmod(x, TWO_PI)
    neg = w < 0.0
    if np.count_nonzero(neg):
        w = np.where(neg, w + TWO_PI, w)
        w[w >= TWO_PI] = 0.0
    return w


class CylinderPoint(NamedTuple):
    """Point of the cross-section: angle x in [0, 2pi), height |y| <= 1."""

    x: float
    y: float


@dataclass(frozen=True)
class ModelParams:
    """Eigenvalue data of the two saddle-foci plus unfolding parameters.

    c1, e1, omega1: contraction rate, expansion rate and spin at the first
    saddle-focus; c2, e2, omega2 likewise at the second.  xi is the global
    phase offset of the second transition and lam the unfolding parameter.
    """

    c1: float
    e1: float
    omega1: float
    c2: float
    e2: float
    omega2: float
    xi: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if not (self.c1 > self.e1 > 0.0 and self.omega1 > 0.0):
            raise InvalidParamsError(
                f"need c1 > e1 > 0 and omega1 > 0, got "
                f"c1={self.c1}, e1={self.e1}, omega1={self.omega1}"
            )
        if not (self.c2 > self.e2 > 0.0 and self.omega2 > 0.0):
            raise InvalidParamsError(
                f"need c2 > e2 > 0 and omega2 > 0, got "
                f"c2={self.c2}, e2={self.e2}, omega2={self.omega2}"
            )
        if self.lam < 0.0:
            raise InvalidParamsError(f"need lam >= 0, got {self.lam}")

    @property
    def delta1(self) -> float:
        return self.c1 / self.e1

    @property
    def delta2(self) -> float:
        return self.c2 / self.e2

    @property
    def delta(self) -> float:
        return self.delta1 * self.delta2

    @property
    def k_omega(self) -> float:
        return (self.e2 * self.omega1 + self.c1 * self.omega2) / (self.e1 * self.e2)

    @functools.cached_property
    def _step_scalars(self) -> tuple[float, float, float, float]:
        """(lam, xi, k_omega, delta) for _return_step, built on first use."""
        return self.lam, self.xi, self.k_omega, self.delta

    def with_lambda(self, lam: float) -> "ModelParams":
        return replace(self, lam=lam)

    def with_k_omega(self, k_omega: float) -> "ModelParams":
        """Rescale omega1 = omega2 = omega to hit a target twisting number."""
        omega = k_omega * self.e1 * self.e2 / (self.e2 + self.c1)
        return replace(self, omega1=omega, omega2=omega)


def derived_constants(params: ModelParams) -> tuple[float, float, float, float]:
    """Return (delta1, delta2, delta, k_omega) for a valid parameter record."""
    return params.delta1, params.delta2, params.delta, params.k_omega


def reference_params(omega: float = 1.0, lam: float = 0.0, xi: float = 0.0) -> ModelParams:
    """Reference test model: c1=2, e1=1, c2=3, e2=1, so K_omega = 3*omega."""
    return ModelParams(c1=2.0, e1=1.0, omega1=omega, c2=3.0, e2=1.0,
                       omega2=omega, xi=xi, lam=lam)


# ---------------------------------------------------------------------------
# Perturbation pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigPoly:
    """Trigonometric polynomial c0 + sum_k (ck*cos(kx) + sk*sin(kx)).

    Terms are (harmonic, cos-coefficient, sin-coefficient) triples.  Carries
    analytic derivatives of all orders used by the maps.
    """

    constant: float = 0.0
    terms: tuple[tuple[int, float, float], ...] = ()

    def __call__(self, x):
        lib, out = _backend(x)
        out = self.constant + out
        for k, ck, sk in self.terms:
            out = out + ck * lib.cos(k * x) + sk * lib.sin(k * x)
        return _scalarize(out)

    def d1(self, x):
        lib, out = _backend(x)
        for k, ck, sk in self.terms:
            out = out + k * (-ck * lib.sin(k * x) + sk * lib.cos(k * x))
        return _scalarize(out)

    def d2(self, x):
        lib, out = _backend(x)
        for k, ck, sk in self.terms:
            out = out - k * k * (ck * lib.cos(k * x) + sk * lib.sin(k * x))
        return _scalarize(out)


def _backend(x):
    """math and a 0.0 start for a plain float, else numpy and a zero array.

    The math path keeps scalar map steps free of per-call numpy overhead.
    """
    if type(x) is float:
        return math, 0.0
    return np, np.zeros_like(np.asarray(x, dtype=float))


def _scalarize(out):
    if type(out) is float or out.ndim:
        return out
    return float(out)


@dataclass(frozen=True)
class CylinderFunction:
    """Smooth map on the cylinder of the form P(x) + y*Q(x).

    P and Q are trigonometric polynomials, so all partial derivatives are
    analytic.  Q = None means a y-independent profile.
    """

    base: TrigPoly
    slope: TrigPoly | None = None

    def __call__(self, x, y):
        if self.slope is None:
            b = self.base(x)
            if type(y) is not float and np.ndim(y) and not np.ndim(b):
                return b + np.zeros(np.shape(y))
            return b
        return self.base(x) + y * self.slope(x)

    def section(self) -> TrigPoly:
        """Profile at y = 0."""
        return self.base


def named_profile(name: str, **kw) -> CylinderFunction:
    """Built-in perturbation families addressable from config files."""
    if name == "cosine":
        amp = kw.pop("amplitude", 1.0)
        fn = CylinderFunction(TrigPoly(0.0, ((1, amp, 0.0),)))
    elif name == "offset_sine":
        offset = kw.pop("offset", 1.1)
        amp = kw.pop("amplitude", 1.0)
        fn = CylinderFunction(TrigPoly(offset, ((1, 0.0, amp),)))
    elif name == "constant":
        value = kw.pop("value", 1.0)
        fn = CylinderFunction(TrigPoly(value, ()))
    else:
        raise ValueError(f"unknown perturbation family: {name!r}")
    if kw:
        raise ValueError(f"unknown options for family {name!r}: {sorted(kw)}")
    return fn


class MorseError(ValueError):
    """ln(Phi2(., 0)) fails the nondegenerate-critical-point check."""


@dataclass(frozen=True)
class Perturbation:
    """The pair (Phi1, Phi2) of smooth maps on the cylinder strip.

    Phi2 must be strictly positive and ln(Phi2(., 0)) must be a Morse
    function; validate() checks both numerically.
    """

    phi1: CylinderFunction
    phi2: CylinderFunction
    epsilon: float = 1.0

    def validate(self, grid: int = 4096) -> None:
        xs = np.linspace(0.0, TWO_PI, grid, endpoint=False)
        for yv in (-self.epsilon, 0.0, self.epsilon):
            vals = np.asarray(self.phi2(xs, np.full_like(xs, yv)))
            if np.any(vals <= 0.0):
                raise MorseError(f"Phi2 not strictly positive at y={yv}")
        # ln(Phi2(x,0)) critical points: sign changes of Phi2'(x,0) with
        # nonvanishing second derivative of the log.
        sec = self.phi2.section()
        d1 = np.asarray(sec.d1(xs))
        flips = np.nonzero(d1 * np.roll(d1, -1) < 0.0)[0]
        for i in flips:
            xc = 0.5 * (xs[i] + xs[(i + 1) % grid])
            v, dv, d2v = sec(xc), sec.d1(xc), sec.d2(xc)
            log_d2 = (d2v * v - dv * dv) / (v * v)
            if abs(log_d2) < 1e-8:
                raise MorseError(f"degenerate critical point of ln Phi2 near x={xc}")

    def phi2_max(self, grid: int = 4096) -> float:
        xs = np.linspace(0.0, TWO_PI, grid, endpoint=False)
        return float(np.max(self.phi2.section()(xs)))

    @functools.cached_property
    def _step_tables(self) -> tuple:
        """Coefficient tables of the pair for _return_step, built on first use.

        (harmonics, phi1, phi2): the distinct harmonics of all four trig
        polynomials, and per profile a (base, slope) pair.  Each polynomial
        is (constant, ((index into harmonics, k, ck, sk), ...)); a missing
        slope stays None.
        """
        polys = (self.phi1.base, self.phi1.slope, self.phi2.base, self.phi2.slope)
        harmonics = tuple(sorted({k for tp in polys if tp is not None
                                  for k, _, _ in tp.terms}))

        def table(tp):
            if tp is None:
                return None
            return tp.constant, tuple((harmonics.index(k), k, ck, sk)
                                      for k, ck, sk in tp.terms)

        return (harmonics, (table(polys[0]), table(polys[1])),
                (table(polys[2]), table(polys[3])))

    @functools.cached_property
    def _batch_tables(self) -> tuple:
        """_step_tables laid out as coefficient rows for step_batch.

        (harmonics, const, cos, sin, slopes).  Each polynomial gets a value
        row and an x-derivative row: Phi1's and Phi2's bases first (rows
        0-3: Phi1, Phi1_x, Phi2, Phi2_x at y = 0), then the slopes that
        exist.  const is an (R, 1) column; cos and sin hold per harmonic
        the (R, 1) column of coefficients of cos(kx) and sin(kx): (ck, sk)
        on a value row, (k*sk, -k*ck) on a derivative row.  slopes lists
        (profile index, row of its slope's value) per profile with a slope.
        """
        harmonics, *profiles = self._step_tables
        polys = [base for base, _ in profiles]
        slopes = []
        for profile, (_, slope) in enumerate(profiles):
            if slope is not None:
                slopes.append((profile, 2 * len(polys)))
                polys.append(slope)
        rows = 2 * len(polys)
        const = np.zeros((rows, 1))
        cos = np.zeros((len(harmonics), rows, 1))
        sin = np.zeros((len(harmonics), rows, 1))
        for p, (c0, terms) in enumerate(polys):
            const[2 * p] = c0
            for h, k, ck, sk in terms:
                cos[h, 2 * p] += ck
                sin[h, 2 * p] += sk
                cos[h, 2 * p + 1] += k * sk
                sin[h, 2 * p + 1] += -k * ck
        return harmonics, const, tuple(cos), tuple(sin), tuple(slopes)


def reference_perturbation() -> Perturbation:
    """Phi1 = cos x, Phi2 = 1.1 + sin x (positive, two Morse turns)."""
    return Perturbation(phi1=named_profile("cosine"),
                        phi2=named_profile("offset_sine"))


# ---------------------------------------------------------------------------
# Orbit bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class OrbitRecord:
    """Iterated trajectory with escape bookkeeping.

    When escaped, points has length escape_index + 1 (the offending point is
    the last one recorded).
    """

    points: np.ndarray  # shape (n, 2)
    escaped: bool = False
    escape_index: int | None = None

    def __post_init__(self):
        assert self.escaped == (self.escape_index is not None)

    def __len__(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# Return map and its Jacobian
# ---------------------------------------------------------------------------

def _step_constants(params: ModelParams, pert: Perturbation) -> tuple:
    """Everything _return_step reads, cached on the parameter records."""
    return params._step_scalars + pert._step_tables


def _trig_sum(poly, trig) -> tuple[float, float]:
    """Value and x-derivative of one _step_tables polynomial at shared cos/sin."""
    out, d1 = poly[0], 0.0
    for i, k, ck, sk in poly[1]:
        c, s = trig[i]
        out = out + ck * c + sk * s
        d1 = d1 + k * (-ck * s + sk * c)
    return out, d1


def _profile(base, slope, trig, y: float) -> tuple[float, float, float]:
    """P(x) + y*Q(x) with its x- and y-derivatives."""
    p, dp = _trig_sum(base, trig)
    if slope is None:
        return p, dp, 0.0
    q, dq = _trig_sum(slope, trig)
    return p + y * q, dp + y * dq, q


def _return_step(x: float, y: float, consts: tuple) -> tuple[float, ...]:
    """One step of eta o psi_21 and its Jacobian, in plain floats.

    Returns (unwrapped new angle, new height, j11, j12, j21, j22); `consts`
    comes from _step_constants.  The only copy of the return-map arithmetic:
    the perturbation pair is evaluated once, from one cos/sin per harmonic.
    Raises EscapeError when y + lam*Phi2 <= 0 or the image height leaves the
    strip |y| <= 1.
    """
    lam, xi, k_omega, delta, harmonics, phi1, phi2 = consts
    trig = [(math.cos(k * x), math.sin(k * x)) for k in harmonics]
    f1, f1x, f1y = _profile(*phi1, trig, y)
    f2, f2x, f2y = _profile(*phi2, trig, y)
    big_y = y + lam * f2
    if big_y <= 0.0:
        raise EscapeError(CylinderPoint(x, y))
    new_y = big_y ** delta
    if new_y > 1.0:
        raise EscapeError(CylinderPoint(x, y))
    new_x = x + xi + lam * f1 - k_omega * math.log(big_y)
    # chain rule: D eta at psi_21(x, y) times D psi_21 at (x, y), where
    # D eta(X, Y) = [[1, -K/Y], [0, delta*Y^(delta-1)]]
    e12 = -k_omega / big_y
    e22 = delta * big_y ** (delta - 1.0)
    p21 = lam * f2x
    p22 = 1.0 + lam * f2y
    return (new_x, new_y, 1.0 + lam * f1x + e12 * p21, lam * f1y + e12 * p22,
            e22 * p21, e22 * p22)


def _batch_constants(params: ModelParams, pert: Perturbation) -> tuple:
    """Everything step_batch reads but the per-orbit lam and K_omega."""
    return (params.xi, params.delta) + pert._batch_tables


def step_batch(x: np.ndarray, y: np.ndarray, lam, k_omega,
               consts: tuple) -> tuple[np.ndarray, ...]:
    """_return_step for many orbits at once, lam and K_omega given per orbit.

    Returns (unwrapped new angles, new heights, j11, j12, j21, j22, alive);
    `consts` comes from _batch_constants and `lam`, `k_omega` are arrays or
    floats.  The pair is evaluated as rows (value and x-derivative of each
    profile) from the same coefficient tables as _return_step.  For one
    harmonic and no slopes every sum runs in _return_step's order, so only
    np.log and np.power (which may differ from math by an ULP) separate the
    two.  Where _return_step raises EscapeError, `alive` is False and the
    other entries are finite but meaningless.
    """
    xi, delta, harmonics, const, cos_coef, sin_coef, slopes = consts
    v = const
    for k, a, b in zip(harmonics, cos_coef, sin_coef):
        kx = x if k == 1 else k * x
        v = v + a * np.cos(kx) + b * np.sin(kx)
    f, fy = v[:4], [None, None]  # fy: each profile's slope, Phi_y
    if slopes:
        f = f.copy()
        for profile, row in slopes:
            f[2 * profile:2 * profile + 2] += y * v[row:row + 2]
            fy[profile] = v[row]
    f1y, f2y = fy
    lf = lam * f  # rows: lam*Phi1, lam*Phi1_x, lam*Phi2, lam*Phi2_x
    big_y = y + lf[2]
    alive = big_y > 0.0
    if np.count_nonzero(alive) < alive.size:
        big_y = np.where(alive, big_y, 1.0)
    new_y = big_y ** delta
    alive &= new_y <= 1.0
    new_x = x + xi + lf[0] - k_omega * np.log(big_y)
    # D eta = [[1, e12], [0, e22]] with e12 = -r; _return_step's a + e12*p
    # equals a - r*p exactly, and without slopes p22 = 1 and lam*Phi1_y = 0
    r = k_omega / big_y
    e22 = delta * big_y ** (delta - 1.0)
    j11 = 1.0 + lf[1] - r * lf[3]
    if not slopes:
        return new_x, new_y, j11, -r, e22 * lf[3], e22, alive
    p22 = 1.0 if f2y is None else 1.0 + lam * f2y
    j12 = -(r * p22) if f1y is None else lam * f1y - r * p22
    return new_x, new_y, j11, j12, e22 * lf[3], e22 * p22, alive


def return_map(p: CylinderPoint, params: ModelParams, pert: Perturbation) -> CylinderPoint:
    """First return map eta o psi_21 on the domain y + lam*Phi2 > 0."""
    q = _return_step(p[0], p[1], _step_constants(params, pert))
    return CylinderPoint(wrap_angle(q[0]), q[1])


def jac_return(p, params: ModelParams, pert: Perturbation) -> np.ndarray:
    """Analytic Jacobian of the return map, from the return-step kernel.

    Raises EscapeError where return_map does.
    """
    j = _return_step(p[0], p[1], _step_constants(params, pert))
    return np.array([[j[2], j[3]], [j[4], j[5]]])


def det_jac_return(p, params: ModelParams, pert: Perturbation) -> float:
    """Determinant via the factorization delta*Y^(delta-1) * det(D psi_21).

    Reads the pair and its partials from the tables _return_step uses and
    does not check the domain.  H1 takes its determinants from step_batch;
    this is the scalar reference they are tested against, kept under its
    name because perfbench/tracing.py binds it.
    """
    x, y = p
    lam, _, _, delta, harmonics, phi1, phi2 = _step_constants(params, pert)
    trig = [(math.cos(k * x), math.sin(k * x)) for k in harmonics]
    _, f1x, f1y = _profile(*phi1, trig, y)
    f2, f2x, f2y = _profile(*phi2, trig, y)
    big_y = y + lam * f2
    dpsi = (1.0 + lam * f1x) * (1.0 + lam * f2y) - lam * lam * f1y * f2x
    return delta * big_y ** (delta - 1.0) * dpsi
