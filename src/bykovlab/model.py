"""Model parameters, the perturbation pair and the first return map.

Coordinates live on the cylinder cross-section: an angle x (mod 2pi) and a
height y in [-1, 1].  The return map eta o psi_21 follows the perturbed
global transition psi_21(x, y) = (x + xi + lam*Phi1, y + lam*Phi2) by the
passage past both saddle-foci, eta(X, Y) = (X - K_omega ln Y, Y^delta).  One
float kernel, _return_step, evaluates the map and its Jacobian for one orbit;
its image half, _image_step, is the map alone.  Their array twins,
step_batch and image_batch, step many orbits at once with lam and K_omega
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
PROFILE_GRID = 4096  # Perturbation.validate/phi2_max: sample points on the circle


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


def circle_gap(a, b):
    """|a - b| on the circle, in [0, pi], for floats or arrays."""
    return np.abs(np.mod(a - b + math.pi, TWO_PI) - math.pi)


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

    def jet(self, x, order: int = 1) -> list:
        """[P, P', ..., P^(order)] at x, order <= 2: one cos, sin per harmonic."""
        x = np.asarray(x, dtype=float)
        out = [np.zeros_like(x) + c for c in (self.constant, 0.0, 0.0)[:order + 1]]
        for k, ck, sk in self.terms:
            c, s = np.cos(k * x), np.sin(k * x)
            out[0] = out[0] + ck * c + sk * s
            if order >= 1:
                out[1] = out[1] + k * (-ck * s + sk * c)
            if order >= 2:
                out[2] = out[2] - k * k * (ck * c + sk * s)
        return out

    def __call__(self, x):
        return self.jet(x, 0)[0]

    def d1(self, x):
        return self.jet(x, 1)[1]

    def d2(self, x):
        return self.jet(x, 2)[2]


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

    def validate(self) -> None:
        xs = np.linspace(0.0, TWO_PI, PROFILE_GRID, endpoint=False)
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
            xc = 0.5 * (xs[i] + xs[(i + 1) % PROFILE_GRID])
            v, dv, d2v = sec(xc), sec.d1(xc), sec.d2(xc)
            log_d2 = (d2v * v - dv * dv) / (v * v)
            if abs(log_d2) < 1e-8:
                raise MorseError(f"degenerate critical point of ln Phi2 near x={xc}")

    def phi2_max(self) -> float:
        xs = np.linspace(0.0, TWO_PI, PROFILE_GRID, endpoint=False)
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
        """_step_tables laid out as coefficient rows for the array kernel.

        (harmonics, rows, value_rows), each of rows and value_rows a
        (const, cos, sin, slopes) table.  In rows each polynomial gets a
        value row and an x-derivative row: Phi1's and Phi2's bases first
        (rows 0-3: Phi1, Phi1_x, Phi2, Phi2_x at y = 0), then the slopes
        that exist.  const is an (R, 1) column; cos and sin hold per
        harmonic the (R, 1) column of coefficients of cos(kx) and sin(kx):
        (ck, sk) on a value row, (k*sk, -k*ck) on a derivative row.  slopes
        lists (profile index, row of its slope's value) per profile with a
        slope.  value_rows is the same table with the value rows only (rows
        0-1: Phi1, Phi2 at y = 0), for image_batch.
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
        values = (const[::2].copy(), tuple(c[::2].copy() for c in cos),
                  tuple(s[::2].copy() for s in sin),
                  tuple((profile, row // 2) for profile, row in slopes))
        return (harmonics, (const, tuple(cos), tuple(sin), tuple(slopes)),
                values)


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


# ---------------------------------------------------------------------------
# Return map and its Jacobian
# ---------------------------------------------------------------------------

def _step_constants(params: ModelParams, pert: Perturbation) -> tuple:
    """Everything _image_step and _return_step read, cached on the records."""
    return params._step_scalars + pert._step_tables


def _trig_sum(poly, trig) -> float:
    """Value of one _step_tables polynomial at shared cos/sin."""
    out = poly[0]
    for i, _, ck, sk in poly[1]:
        c, s = trig[i]
        out = out + ck * c + sk * s
    return out


def _partials(profile, trig, y: float) -> tuple[float, float]:
    """x- and y-derivatives P' + y*Q' and Q of a (base, slope) profile."""
    base, slope = profile
    dp = 0.0
    for i, k, ck, sk in base[1]:
        c, s = trig[i]
        dp = dp + k * (-ck * s + sk * c)
    if slope is None:
        return dp, 0.0
    dq = 0.0
    for i, k, ck, sk in slope[1]:
        c, s = trig[i]
        dq = dq + k * (-ck * s + sk * c)
    return dp + y * dq, _trig_sum(slope, trig)


def _image_step(x: float, y: float, consts: tuple) -> tuple:
    """The image half of _return_step: the map without its derivatives.

    Returns (unwrapped new angle, new height, Y, trig) with Y = y + lam*Phi2
    and trig the (cos kx, sin kx) of each harmonic, which _return_step
    reuses for the Jacobian.  The only scalar copy of the return-map
    arithmetic: the pair is evaluated once, from one cos/sin per harmonic
    (the base sums are written out: this is the hot loop of every one-orbit
    path).  Raises EscapeError when Y <= 0 or the image height
    leaves the strip |y| <= 1.
    """
    lam, xi, k_omega, delta, harmonics, (base1, slope1), (base2, slope2) = consts
    trig = []  # a loop, not a comprehension: that costs a frame per call
    for k in harmonics:
        trig.append((math.cos(k * x), math.sin(k * x)))
    f2 = base2[0]
    for i, _, ck, sk in base2[1]:
        c, s = trig[i]
        f2 = f2 + ck * c + sk * s
    if slope2 is not None:
        f2 = f2 + y * _trig_sum(slope2, trig)
    big_y = y + lam * f2
    if big_y <= 0.0:
        raise EscapeError(CylinderPoint(x, y))
    new_y = big_y ** delta
    if new_y > 1.0:
        raise EscapeError(CylinderPoint(x, y))
    f1 = base1[0]
    for i, _, ck, sk in base1[1]:
        c, s = trig[i]
        f1 = f1 + ck * c + sk * s
    if slope1 is not None:
        f1 = f1 + y * _trig_sum(slope1, trig)
    return x + xi + lam * f1 - k_omega * math.log(big_y), new_y, big_y, trig


def _return_step(x: float, y: float, consts: tuple) -> tuple[float, ...]:
    """One step of eta o psi_21 and its Jacobian, in plain floats.

    Returns (unwrapped new angle, new height, j11, j12, j21, j22); `consts`
    comes from _step_constants.  The image is _image_step's; the Jacobian
    adds the pair's partial derivatives at the same cos/sin.  Raises
    EscapeError where _image_step does.
    """
    new_x, new_y, big_y, trig = _image_step(x, y, consts)
    lam, _, k_omega, delta, _, phi1, phi2 = consts
    f1x, f1y = _partials(phi1, trig, y)
    f2x, f2y = _partials(phi2, trig, y)
    # chain rule: D eta at psi_21(x, y) times D psi_21 at (x, y), where
    # D eta(X, Y) = [[1, -K/Y], [0, delta*Y^(delta-1)]]
    e12 = -k_omega / big_y
    e22 = delta * big_y ** (delta - 1.0)
    p21 = lam * f2x
    p22 = 1.0 + lam * f2y
    return (new_x, new_y, 1.0 + lam * f1x + e12 * p21, lam * f1y + e12 * p22,
            e22 * p21, e22 * p22)


def _batch_constants(params: ModelParams, pert: Perturbation) -> tuple:
    """Everything the array kernel reads but the per-orbit lam and K_omega."""
    return (params.xi, params.delta) + pert._batch_tables


def _pair_rows(x: np.ndarray, y: np.ndarray, harmonics: tuple, table: tuple,
               width: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of one _batch_tables table at the orbits (x, y).

    Returns (f, v): v holds every row at y = 0, and f the first 2*width
    rows (`width` rows per profile: its value, then its x-derivative if
    width is 2) with each slope's rows added y times.
    """
    const, cos_coef, sin_coef, slopes = table
    v = const
    for k, a, b in zip(harmonics, cos_coef, sin_coef):
        kx = x if k == 1 else k * x
        v = v + a * np.cos(kx) + b * np.sin(kx)
    f = v[:2 * width]
    if slopes:
        f = f.copy()
        for profile, row in slopes:
            f[width * profile:width * (profile + 1)] += y * v[row:row + width]
    return f, v


def _batch_image(x: np.ndarray, y: np.ndarray, lam_f1: np.ndarray,
                 lam_f2: np.ndarray, k_omega, xi: float,
                 delta: float) -> tuple[np.ndarray, ...]:
    """The array copy of the return-map arithmetic, from lam*Phi1, lam*Phi2.

    Returns (unwrapped new angles, new heights, alive, Y) with
    Y = y + lam*Phi2, set to 1 where it is not positive so that everything
    computed from it stays finite.
    """
    big_y = y + lam_f2
    alive = big_y > 0.0
    if np.count_nonzero(alive) < alive.size:
        big_y = np.where(alive, big_y, 1.0)
    new_y = big_y ** delta
    alive &= new_y <= 1.0
    return x + xi + lam_f1 - k_omega * np.log(big_y), new_y, alive, big_y


def image_batch(x: np.ndarray, y: np.ndarray, lam, k_omega,
                consts: tuple) -> tuple[np.ndarray, ...]:
    """The image half of step_batch: many orbits' images, no Jacobian.

    Returns (unwrapped new angles, new heights, alive), equal bit for bit
    to those of step_batch with the same arguments.  Only the value rows
    of the pair are evaluated.
    """
    xi, delta, harmonics, _, values = consts
    lf = lam * _pair_rows(x, y, harmonics, values, 1)[0]
    return _batch_image(x, y, lf[0], lf[1], k_omega, xi, delta)[:3]


def step_batch(x: np.ndarray, y: np.ndarray, lam, k_omega,
               consts: tuple) -> tuple[np.ndarray, ...]:
    """_return_step for many orbits at once, lam and K_omega given per orbit.

    Returns (unwrapped new angles, new heights, j11, j12, j21, j22, alive);
    `consts` comes from _batch_constants and `lam`, `k_omega` are arrays or
    floats.  The pair is evaluated as rows (value and x-derivative of each
    profile) from the same coefficient tables as _return_step, and the
    image comes from the same arithmetic as image_batch's, which is the
    cheaper call where the Jacobian is not needed.  For one harmonic and
    no slopes every sum runs in _return_step's order, so only np.log and
    np.power (which may differ from math by an ULP) separate the two.
    Where _return_step raises EscapeError, `alive` is False and the other
    entries are finite but meaningless.
    """
    xi, delta, harmonics, rows, _ = consts
    slopes = rows[3]
    f, v = _pair_rows(x, y, harmonics, rows, 2)
    fy = [None, None]  # each profile's slope, Phi_y
    for profile, row in slopes:
        fy[profile] = v[row]
    f1y, f2y = fy
    lf = lam * f  # rows: lam*Phi1, lam*Phi1_x, lam*Phi2, lam*Phi2_x
    new_x, new_y, alive, big_y = _batch_image(x, y, lf[0], lf[2], k_omega,
                                              xi, delta)
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
    """First return map eta o psi_21 on the domain y + lam*Phi2 > 0.

    Steps through the kernel's image half, so no derivative is computed.
    """
    q = _image_step(p[0], p[1], _step_constants(params, pert))
    return CylinderPoint(wrap_angle(q[0]), q[1])


def jac_return(p, params: ModelParams, pert: Perturbation) -> np.ndarray:
    """Analytic Jacobian of the return map, from the return-step kernel.

    Raises EscapeError where return_map does.
    """
    j = _return_step(p[0], p[1], _step_constants(params, pert))
    return np.array(j[2:]).reshape(2, 2)


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
    f1x, f1y = _partials(phi1, trig, y)
    f2x, f2y = _partials(phi2, trig, y)
    f2 = _trig_sum(phi2[0], trig)
    if phi2[1] is not None:
        f2 = f2 + y * f2y
    big_y = y + lam * f2
    dpsi = (1.0 + lam * f1x) * (1.0 + lam * f2y) - lam * lam * f1y * f2x
    return delta * big_y ** (delta - 1.0) * dpsi
