"""Model parameters, the perturbation pair and the first return map.

Coordinates live on the cylinder cross-section: an angle x (mod 2pi) and a
height y in [-1, 1].  The return map eta o psi_21 follows the perturbed
global transition psi_21(x, y) = (x + xi + lam*Phi1, y + lam*Phi2) by the
passage past both saddle-foci, eta(X, Y) = (X - K_omega ln Y, Y^delta).  The
pair is one coefficient table, Perturbation._table, with a value row and an
x-derivative row per trig polynomial.  Two backends read it: the float
kernel, _return_step, evaluates the map and its Jacobian for one orbit (its
image half, _image_step, is the map alone), and its array twins,
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


def _bisect(f, lo, hi, flo, steps: int) -> np.ndarray:
    """Midpoints of the brackets [lo, hi] after `steps` halvings that keep a
    sign change of f, given flo = f(lo); a zero at a midpoint moves hi onto
    it.  Elementwise: f maps an array of points to their values."""
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
        # ln(Phi2(x,0)) critical points: the grid steps where Phi2'(x,0) < 0
        # flips around the circle (a zero on a node ends one bracket), all
        # bisected at once; 40 halvings shrink a grid step to about one ULP,
        # and the second derivative of the log is read at those roots
        sec = self.phi2.section()
        neg = np.asarray(sec.d1(xs)) < 0.0
        lo = xs[np.nonzero(neg != np.roll(neg, -1))[0]]
        root = _bisect(sec.d1, lo, lo + TWO_PI / PROFILE_GRID, sec.d1(lo), 40)
        v, dv, d2v = sec.jet(root, 2)
        flat = np.abs((d2v * v - dv * dv) / (v * v)) < 1e-8
        if flat.any():
            raise MorseError("degenerate critical point of ln Phi2 near "
                             f"x={root[np.argmax(flat)]}")

    def phi2_max(self) -> float:
        xs = np.linspace(0.0, TWO_PI, PROFILE_GRID, endpoint=False)
        return float(np.max(self.phi2.section()(xs)))

    @functools.cached_property
    def _table(self) -> tuple:
        """The pair's one coefficient table, built on first use.

        Each trig polynomial gets a value row and an x-derivative row:
        Phi1's and Phi2's bases first (rows 0-3: Phi1, Phi1_x, Phi2, Phi2_x
        at y = 0), then the slopes that exist.  Column 0 holds the
        constants, and columns 2h+1, 2h+2 the coefficients of cos(kx),
        sin(kx) for the h-th of the sorted distinct harmonics k: (ck, sk)
        on a value row, (k*sk, -k*ck) on a derivative row, the terms of a
        repeated harmonic added.  Both kernels add a row's terms in column
        order, so from the same cos and sin they give the same rows.

        Returns (floats, arrays).  floats, for the float kernel, is
        (harmonics, phi1, phi2): per profile the rows (value, x-derivative,
        slope value, slope x-derivative), each (constant, ((trig index,
        coefficient), ...)) over its nonzero columns, with trig the list
        [cos k1x, sin k1x, cos k2x, ...]; a missing slope's rows are None.
        arrays, for the array kernel, is (harmonics, rows, value_rows):
        rows = (const, cos, sin, slopes) with const the (R, 1) constant
        column, cos and sin per harmonic an (R, 1) coefficient column, and
        slopes a (profile index, row of its slope's value) pair per profile
        with a slope; value_rows is the same over the value rows only (rows
        0-1: Phi1, Phi2 at y = 0), for image_batch.
        """
        polys = [self.phi1.base, self.phi2.base]
        slopes = []
        for profile, fn in enumerate((self.phi1, self.phi2)):
            if fn.slope is not None:
                slopes.append((profile, 2 * len(polys)))
                polys.append(fn.slope)
        harmonics = tuple(sorted({k for tp in polys for k, _, _ in tp.terms}))
        table = np.zeros((2 * len(polys), 1 + 2 * len(harmonics)))
        for p, tp in enumerate(polys):
            table[2 * p, 0] = tp.constant
            for k, ck, sk in tp.terms:
                h = 1 + 2 * harmonics.index(k)
                table[2 * p, h:h + 2] += ck, sk
                table[2 * p + 1, h:h + 2] += k * sk, -k * ck
        rows = [(c0, tuple((j, a) for j, a in enumerate(coef) if a != 0.0))
                for c0, *coef in table.tolist()]
        slope_row = dict(slopes)

        def profile_rows(p):
            s = slope_row.get(p)
            return (rows[2 * p], rows[2 * p + 1],
                    *((None, None) if s is None else rows[s:s + 2]))

        def columns(t):
            cols = t.T.copy()[..., None]  # a contiguous (R, 1) per column
            return cols[0], tuple(cols[1::2]), tuple(cols[2::2])

        return ((harmonics, profile_rows(0), profile_rows(1)),
                (harmonics, (*columns(table), tuple(slopes)),
                 (*columns(table[::2]),
                  tuple((p, s // 2) for p, s in slopes))))


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
    return params._step_scalars + pert._table[0]


def _row(row, trig) -> float:
    """One float row of Perturbation._table at shared cos/sin."""
    out, terms = row
    for j, a in terms:
        out = out + a * trig[j]
    return out


def _partials(profile, trig, y: float) -> tuple[float, float]:
    """x- and y-derivatives P' + y*Q' and Q of one profile's float rows."""
    _, dx, slope, dslope = profile
    dp, terms = dx
    for j, a in terms:
        dp = dp + a * trig[j]
    if slope is None:
        return dp, 0.0
    return dp + y * _row(dslope, trig), _row(slope, trig)


def _image_step(x: float, y: float, consts: tuple) -> tuple:
    """The image half of _return_step: the map without its derivatives.

    Returns (unwrapped new angle, new height, Y, trig) with Y = y + lam*Phi2
    and trig the cos kx, sin kx of each harmonic, which _return_step reuses
    for the Jacobian.  The only scalar copy of the return-map arithmetic:
    the pair's value rows are summed once, from one cos/sin per harmonic
    (the base sums are written out: this is the hot loop of every one-orbit
    path).  Raises EscapeError when Y <= 0 or the image height leaves the
    strip |y| <= 1.
    """
    lam, xi, k_omega, delta, harmonics, (f1, _, q1, _), (f2, _, q2, _) = consts
    trig = []  # a loop, not a comprehension: that costs a frame per call
    for k in harmonics:
        trig.append(math.cos(k * x))
        trig.append(math.sin(k * x))
    phi2, terms = f2
    for j, a in terms:
        phi2 = phi2 + a * trig[j]
    if q2 is not None:
        phi2 = phi2 + y * _row(q2, trig)
    big_y = y + lam * phi2
    if big_y <= 0.0:
        raise EscapeError(CylinderPoint(x, y))
    new_y = big_y ** delta
    if new_y > 1.0:
        raise EscapeError(CylinderPoint(x, y))
    phi1, terms = f1
    for j, a in terms:
        phi1 = phi1 + a * trig[j]
    if q1 is not None:
        phi1 = phi1 + y * _row(q1, trig)
    return x + xi + lam * phi1 - k_omega * math.log(big_y), new_y, big_y, trig


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
    return (params.xi, params.delta) + pert._table[1]


def _pair_rows(x: np.ndarray, y: np.ndarray, harmonics: tuple, table: tuple,
               width: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of one array table of Perturbation._table at the orbits.

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
    profile) from the table _return_step reads, and the image comes from
    the same arithmetic as image_batch's, which is the cheaper call where
    the Jacobian is not needed.  Every sum runs in _return_step's order, so
    only numpy's cos, sin, log and power (which may differ from math's by
    an ULP) separate the two.  Where _return_step raises EscapeError,
    `alive` is False and the other entries are finite but meaningless.
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

    Reads the pair and its partials from the table _return_step reads and
    does not check the domain.  H1 takes its determinants from step_batch;
    this is the scalar reference they are tested against, kept under its
    name because perfbench/tracing.py binds it.
    """
    x, y = p
    lam, _, _, delta, harmonics, phi1, phi2 = _step_constants(params, pert)
    trig = [f(k * x) for k in harmonics for f in (math.cos, math.sin)]
    f1x, f1y = _partials(phi1, trig, y)
    f2x, f2y = _partials(phi2, trig, y)
    f2 = _row(phi2[0], trig)
    if phi2[2] is not None:
        f2 = f2 + y * f2y
    big_y = y + lam * f2
    dpsi = (1.0 + lam * f1x) * (1.0 + lam * f2y) - lam * lam * f1y * f2x
    return delta * big_y ** (delta - 1.0) * dpsi
