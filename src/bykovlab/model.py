"""Model parameters, the perturbation pair and the first return map.

Coordinates live on the cylinder cross-section: an angle x (mod 2pi) and a
height y in [-1, 1].  The return map eta o psi_21 follows the perturbed
global transition psi_21(x, y) = (x + xi + lam*Phi1, y + lam*Phi2) by the
passage past both saddle-foci, eta(X, Y) = (X - K_omega ln Y, Y^delta).  The
pair is one coefficient table, Perturbation._table, with a value row and an
x-derivative row per trig polynomial.  Two kernels are compiled from it on
first use, by one source generator (_kernel_lines), into straight-line code
with the coefficients as literals.  The float kernel, Perturbation._kernel,
runs on Python floats: `image` steps one orbit's map and `step` adds its
Jacobian; return_map, jac_return and orbits.rotation_set_2d call them.  The
array kernel, Perturbation._array_kernel, steps many orbits at once with lam
and K_omega given per orbit: `image` writes each step's raw image, cos, sin
and Y = y + lam*Phi2 into caller buffers and checks nothing, and `jac` turns
stored cos, sin and Y into Jacobians; step_batch runs both, and
orbits._lockstep steps its blocks on them.  Their callers test Y > 0 and
the new height <= 1 themselves.  The factored maps (each local passage,
eta, psi_21 and their Jacobians), the finite-difference Jacobian, and the
float rows each kernel matches bit for bit (looped on floats, and summed
on numpy arrays) are test references in tests/scalar_reference.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi
PROFILE_GRID = 4096  # Perturbation.validate/phi2_max: sample points on the circle
_new_tuple = tuple.__new__  # return_map: a CylinderPoint without its __new__


class InvalidParamsError(ValueError):
    """Eigenvalue data violates the saddle-focus orderings."""


class EscapeError(ValueError):
    """Point left the return domain (y + lam*Phi2 <= 0)."""

    def __init__(self, point):
        super().__init__(f"point escaped the return domain: {point}")
        self.point = point


def circle_gap(a, b):
    """|a - b| on the circle, in [0, pi], for floats or arrays."""
    return np.abs(np.mod(a - b + math.pi, TWO_PI) - math.pi)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """a and b (float arrays of one shape) hold the same bits: -0.0 is not
    +0.0, and a NaN equals only a NaN of the same payload."""
    return a.tobytes() == b.tobytes()


def _bisect(f, lo, hi, flo, steps: int) -> np.ndarray:
    """Midpoints of the brackets [lo, hi] after `steps` halvings that keep a
    sign change of f, given flo = f(lo); a zero at a midpoint moves hi onto
    it.  Elementwise: f maps an array of points to their values.

    `steps` is a cap.  The loop stops early once a halving leaves lo, hi
    and flo bit for bit as they were, as happens when every bracket has
    shrunk to adjacent or equal floats: for a deterministic f the next
    halving would repeat this one, and so would every halving up to the
    cap, so the result is the cap's bit for bit."""
    lo, hi, flo = (np.array(v, dtype=float)
                   for v in np.broadcast_arrays(lo, hi, flo))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        left = flo * fm <= 0.0
        new = (np.where(left, lo, mid), np.where(left, mid, hi),
               np.where(left, flo, fm))
        if all(map(_same_bits, new, (lo, hi, flo))):
            break
        lo, hi, flo = new
    return 0.5 * (lo + hi)


class CylinderPoint(NamedTuple):
    """Point of the cross-section: angle x in [0, 2pi], height |y| <= 1.

    Angles are reduced by `% TWO_PI` (np.remainder on arrays), so a
    negative angle within rounding of a multiple of 2pi reduces to 2pi.
    """

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
        """(lam, xi, k_omega, delta) for the float kernel, built on first use."""
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
        Phi1's and Phi2's bases first, then the slopes that exist.  Column
        0 holds the constants, and columns 2h+1, 2h+2 the coefficients of
        cos(kx), sin(kx) for the h-th of the sorted distinct harmonics k:
        (ck, sk) on a value row, (k*sk, -k*ck) on a derivative row, the
        terms of a repeated harmonic added.

        Returns (harmonics, phi1, phi2): per profile the rows (value,
        x-derivative, slope value, slope x-derivative), each (constant,
        ((trig index, coefficient), ...)) over its nonzero columns, with
        trig the list [cos k1x, sin k1x, cos k2x, ...]; a missing slope's
        rows are None.  Both kernels are compiled from it and add a row's
        terms in column order.
        """
        polys = [self.phi1.base, self.phi2.base]
        slopes = {}
        for profile, fn in enumerate((self.phi1, self.phi2)):
            if fn.slope is not None:
                slopes[profile] = 2 * len(polys)
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

        def profile_rows(p):
            s = slopes.get(p)
            return (rows[2 * p], rows[2 * p + 1],
                    *((None, None) if s is None else rows[s:s + 2]))

        return harmonics, profile_rows(0), profile_rows(1)

    @functools.cached_property
    def _kernel(self) -> tuple:
        """The float kernel (image, step) of _float_kernel, built from
        _table on first use (the first return_map call)."""
        return _float_kernel(self._table)

    @functools.cached_property
    def _array_kernel(self) -> tuple:
        """The array kernel (image, jac) of _array_kernel, built from
        _table on first use."""
        return _array_kernel(self._table)


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

def _row(row, trig) -> float:
    """One float row of Perturbation._table at shared cos/sin."""
    out, terms = row
    for j, a in terms:
        out = out + a * trig[j]
    return out


def _row_source(row) -> str:
    """One float row of Perturbation._table as a Python sum, in column order.

    The terms are summed left to right from the constant, as _row sums
    them; the temporary of column c is named c<c> (the cos or sin that
    trig index c - 1 holds), and every coefficient enters as its repr,
    but a coefficient 1.0, whose product is exact, is left out.
    """
    c0, terms = row
    return " + ".join([repr(c0)] + [f"c{j + 1}" if a == 1.0 else
                                    f"{a!r} * c{j + 1}" for j, a in terms])


def _exec_kernel(source: str, kernel: str, names: dict) -> dict:
    """The namespace of one kernel's source, executed with `names`."""
    namespace = {**names, "inf": math.inf, "nan": math.nan}
    exec(compile(source, f"<bykovlab {kernel} kernel>", "exec"), namespace)
    return namespace


def _kernel_lines(floats: tuple, trig_call) -> tuple:
    """The return map, written once for both kernels: the source lines
    (trig, slopes, dy, angle, log_y, chain).

    trig holds one line per cos and sin, trig_call(name, angle, index)
    giving its call; slopes the lines that name each slope's value row
    q1 (Phi1) or q2 (Phi2).  dy, angle and log_y are the right-hand sides
    lam*Phi2, x + xi + lam*Phi1 and K_omega*log(big_y): Y is
    big_y = y + dy, the new height big_y**delta and the unwrapped new
    angle angle - log_y.  chain holds the lines that set j11, j12, j21
    and j22 from the trig and slope names and big_y: the chain rule
    D eta(X, Y) @ D psi_21(x, y) with D eta = [[1, -r], [0, e22]],
    r = K_omega/Y, e22 = delta*Y^(delta-1) and lf3 = lam*Phi2_x, where
    p22 = 1 + lam*Phi2_y and lam*Phi1_y enter only if Phi2 or Phi1 has a
    slope.  A profile's row at (x, y) is its base row plus y times its
    slope's row, each row summed in column order.  Each kernel wraps
    these lines in its own functions.
    """
    harmonics, phi1, phi2 = floats
    trig = []
    for h, k in enumerate(harmonics):
        kx = "x" if k == 1 else f"{float(k)!r} * x"
        for j, fn in ((2 * h, "cos"), (2 * h + 1, "sin")):
            trig.append(f"    c{j + 1} = {trig_call(fn, kx, j)}")
    slopes = [f"    q{p} = {_row_source(rows[2])}"
              for p, rows in ((1, phi1), (2, phi2)) if rows[2] is not None]

    def value(p, row):  # profile p's value (row 0) or x-derivative (row 1)
        rows = (phi1, phi2)[p - 1]
        out = _row_source(rows[row])
        if rows[2] is None:
            return out
        slope = f"({_row_source(rows[row + 2])})" if row else f"q{p}"
        return f"({out}) + y * {slope}"

    if phi2[2] is None:
        p22, rp22, j22 = [], "r", "e22"
    else:
        p22, rp22, j22 = ["    p22 = 1.0 + lam * q2"], "(r * p22)", "e22 * p22"
    if phi1[2] is not None:
        j12 = f"lam * q1 - {rp22}"
    elif phi2[2] is None:
        j12 = "-r"
    else:  # +0.0 where p22 = 0, as the references' lam*0.0 - r*p22
        j12 = "0.0 - (r * p22)"
    chain = ["    r = k_omega / big_y",
             "    e22 = delta * big_y ** (delta - 1.0)",
             f"    lf3 = lam * ({value(2, 1)})",
             f"    j11 = 1.0 + lam * ({value(1, 1)}) - r * lf3", *p22,
             f"    j12 = {j12}", "    j21 = e22 * lf3", f"    j22 = {j22}"]
    return (trig, slopes, f"lam * ({value(2, 0)})",
            f"x + xi + lam * ({value(1, 0)})", "k_omega * log(big_y)", chain)


def _float_kernel(floats: tuple) -> tuple:
    """Compile the float kernel of one table: the pair (image, step).

    `floats` is Perturbation._table.  Both functions take
    (x, y, (lam, xi, k_omega, delta)) and are straight-line Python with
    the table's nonzero coefficients as literals: one cos and one sin per
    harmonic, each row summed in column order, so they run the float
    operations of the loops in tests/scalar_reference.py, which they match
    bit for bit.  image returns (unwrapped new angle, new height); step
    returns (unwrapped new angle, new height, j11, j12, j21, j22), the
    image and _kernel_lines' chain rule.  Both raise EscapeError when
    Y = y + lam*Phi2 <= 0 or the image height leaves the strip |y| <= 1.
    """
    trig, slopes, dy, angle, log_y, chain = _kernel_lines(
        floats, lambda fn, kx, j: f"{fn}({kx})")
    head = [  # the trig and slope lines, Y, the new height and the escapes
        "    lam, xi, k_omega, delta = s", *trig, *slopes,
        f"    big_y = y + {dy}",
        "    if big_y <= 0.0:",
        "        raise EscapeError(CylinderPoint(x, y))",
        "    new_y = big_y ** delta",
        "    if new_y > 1.0:",
        "        raise EscapeError(CylinderPoint(x, y))"]
    source = "\n".join([
        "def image(x, y, s):", *head,
        f"    return {angle} - {log_y}, new_y",
        "def step(x, y, s):", *head, *chain,
        f"    return {angle} - {log_y}, new_y, j11, j12, j21, j22", ""])
    namespace = _exec_kernel(source, "float", {
        "cos": math.cos, "sin": math.sin, "log": math.log,
        "EscapeError": EscapeError, "CylinderPoint": CylinderPoint})
    return namespace["image"], namespace["step"]


def _array_kernel(floats: tuple) -> tuple:
    """Compile the array kernel of one table: the pair (image, jac).

    The float kernel's lines, from the same source (_kernel_lines), run
    on numpy arrays with lam and K_omega given per orbit (arrays or
    floats):

    - image(x, y, lam, k_omega, xi, delta, new_x, new_y, big_y, trig)
      returns (unwrapped new angles, new heights, Y, trig) with
      Y = y + lam*Phi2 and trig the tuple (cos k1x, sin k1x, ...).  The
      optional arrays new_x, new_y, big_y and the tuple trig receive those
      results in place (out=), so a caller can step orbits straight into
      its own buffers.  It checks nothing: where Y <= 0 the new angle is
      NaN or infinite.  Callers test Y > 0, and the new height <= 1 where
      they need the float kernel's escape.
    - jac(trig, y, big_y, lam, k_omega, delta) returns (j11, j12, j21,
      j22) of the steps from (x, y) whose cos, sin and Y image returned,
      so the Jacobian of a stored stretch of orbit costs no second cos,
      sin or log.

    Every sum runs in the float kernel's order, so only numpy's cos, sin,
    log and power (which may differ from math's by an ULP) separate the
    two kernels.
    """
    trig, slopes, dy, angle, log_y, chain = _kernel_lines(
        floats, lambda fn, kx, j: f"{fn}({kx}, out=trig[{j}])")
    names = "".join(f"c{j + 1}, " for j in range(len(trig)))
    source = "\n".join([
        "def image(x, y, lam, k_omega, xi, delta, new_x=None, new_y=None,",
        f"          big_y=None, trig={(None,) * len(trig)}):",
        *trig, *slopes,
        f"    big_y = add(y, {dy}, out=big_y)",
        "    new_y = power(big_y, delta, out=new_y)",
        f"    new_x = subtract({angle}, {log_y}, out=new_x)",
        f"    return new_x, new_y, big_y, ({names})",
        "def jac(trig, y, big_y, lam, k_omega, delta):",
        f"    {names}= trig" if trig else "", *slopes, *chain,
        "    return j11, j12, j21, j22", ""])
    namespace = _exec_kernel(source, "array", {
        "cos": np.cos, "sin": np.sin, "log": np.log, "add": np.add,
        "subtract": np.subtract, "power": np.power})
    return namespace["image"], namespace["jac"]


def step_batch(x: np.ndarray, y: np.ndarray, lam, k_omega,
               params: ModelParams, pert: Perturbation) -> tuple:
    """The float kernel's step for many orbits at once, lam and K_omega
    given per orbit (arrays or floats), without its escape checks.

    Returns (unwrapped new angles, new heights, j11, j12, j21, j22, Y):
    the array kernel's image and then its Jacobian, from the image's own
    cos, sin and Y = y + lam*Phi2.  The float kernel raises EscapeError
    exactly where not (Y > 0 and new height <= 1); callers test that
    themselves.  Where Y <= 0 the new angle is NaN or infinite and the
    other entries are meaningless; numpy's divide and invalid warnings
    are silenced.
    """
    image, jac = pert._array_kernel
    with np.errstate(divide="ignore", invalid="ignore"):
        new_x, new_y, big_y, trig = image(x, y, lam, k_omega, params.xi,
                                          params.delta)
        return (new_x, new_y,
                *jac(trig, y, big_y, lam, k_omega, params.delta), big_y)


def return_map(p: CylinderPoint, params: ModelParams, pert: Perturbation) -> CylinderPoint:
    """First return map eta o psi_21 on the domain y + lam*Phi2 > 0.

    Steps through the float kernel's image, so no derivative is computed.
    """
    x, y = pert._kernel[0](p[0], p[1], params._step_scalars)
    return _new_tuple(CylinderPoint, (x % TWO_PI, y))


def jac_return(p, params: ModelParams,
               pert: Perturbation) -> tuple[tuple[float, float],
                                            tuple[float, float]]:
    """Analytic Jacobian of the return map as ((j11, j12), (j21, j22)).

    The entries are the last four floats of the float kernel's step, as
    they come, with no array built around them.  Raises EscapeError where
    return_map does.
    """
    _, _, j11, j12, j21, j22 = pert._kernel[1](p[0], p[1],
                                               params._step_scalars)
    return (j11, j12), (j21, j22)


def det_jac_return(p, params: ModelParams, pert: Perturbation) -> float:
    """Determinant via the factorization delta*Y^(delta-1) * det(D psi_21).

    Sums the pair and its partials from the float rows the kernel is
    compiled from, by its own loop, and does not check the domain.  H1 takes its determinants from step_batch;
    this is the scalar reference they are tested against, kept under its
    name because perfbench/tracing.py binds it.
    """
    x, y = p
    lam, delta = params.lam, params.delta
    harmonics, phi1, phi2 = pert._table
    trig = [f(k * x) for k in harmonics for f in (math.cos, math.sin)]

    def partials(value, dx, slope, dslope):  # Phi, Phi_x, Phi_y at (x, y)
        if slope is None:
            return _row(value, trig), _row(dx, trig), 0.0
        q = _row(slope, trig)
        return (_row(value, trig) + y * q,
                _row(dx, trig) + y * _row(dslope, trig), q)

    _, f1x, f1y = partials(*phi1)
    f2, f2x, f2y = partials(*phi2)
    big_y = y + lam * f2
    dpsi = (1.0 + lam * f1x) * (1.0 + lam * f2y) - lam * lam * f1y * f2x
    return delta * big_y ** (delta - 1.0) * dpsi
