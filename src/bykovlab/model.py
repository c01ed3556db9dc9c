"""Model parameters, perturbation pair, local/global maps and the return map.

Coordinates live on the cylinder cross-section: an angle x (mod 2pi) and a
height y in [-1, 1].  The return map is the composition of two local
saddle-focus passages, an identity transition, and a perturbed global
transition (x, y) -> (x + xi + lam*Phi1, y + lam*Phi2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


class InvalidParamsError(ValueError):
    """Eigenvalue data violates the saddle-focus orderings."""


class TrappedError(ValueError):
    """Point lies on the wrong branch of a local map (y <= 0 or r <= 0)."""


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
        out = self.constant + np.zeros_like(np.asarray(x, dtype=float))
        for k, ck, sk in self.terms:
            out = out + ck * np.cos(k * x) + sk * np.sin(k * x)
        return out if out.ndim else float(out)

    def d1(self, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for k, ck, sk in self.terms:
            out = out + k * (-ck * np.sin(k * x) + sk * np.cos(k * x))
        return out if out.ndim else float(out)

    def d2(self, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for k, ck, sk in self.terms:
            out = out - k * k * (ck * np.cos(k * x) + sk * np.sin(k * x))
        return out if out.ndim else float(out)


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
            if np.ndim(y) and not np.ndim(b):
                return b + np.zeros(np.shape(y))
            return b
        return self.base(x) + y * self.slope(x)

    def dx(self, x, y):
        if self.slope is None:
            return self.base.d1(x)
        return self.base.d1(x) + y * self.slope.d1(x)

    def dy(self, x, y):
        if self.slope is None:
            return 0.0 * np.asarray(x, dtype=float) if np.ndim(x) else 0.0
        return self.slope(x)

    def dxx(self, x, y):
        if self.slope is None:
            return self.base.d2(x)
        return self.base.d2(x) + y * self.slope.d2(x)

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
# Local, transition and return maps
# ---------------------------------------------------------------------------

def local_map_o1(p: CylinderPoint, params: ModelParams) -> tuple[float, float]:
    """Passage past the first saddle-focus: wall point -> disc point (r, phi)."""
    x, y = p
    if y <= 0.0:
        raise TrappedError(f"y={y}: trapped or wrong branch at the first focus")
    r = y ** params.delta1
    phi = x - (params.omega1 / params.e1) * math.log(y)
    return r, wrap_angle(phi)


def local_map_o2(r: float, phi: float, params: ModelParams) -> CylinderPoint:
    """Passage past the second saddle-focus: disc point -> wall point."""
    if r <= 0.0:
        raise TrappedError(f"r={r}: on the stable manifold of the second focus")
    x = phi - (params.omega2 / params.e2) * math.log(r)
    y = r ** params.delta2
    return CylinderPoint(wrap_angle(x), y)


def eta(p: CylinderPoint, params: ModelParams) -> CylinderPoint:
    """Closed form of the double passage: (x - K ln y mod 2pi, y^delta)."""
    x, y = p
    if y <= 0.0:
        raise TrappedError(f"y={y}: entered lower branch / trapped")
    return CylinderPoint(wrap_angle(x - params.k_omega * math.log(y)),
                         y ** params.delta)


def psi_21(p: CylinderPoint, params: ModelParams, pert: Perturbation) -> CylinderPoint:
    """Perturbed global transition (x, y) -> (x + xi + lam*Phi1, y + lam*Phi2)."""
    x, y = p
    lam = params.lam
    return CylinderPoint(wrap_angle(x + params.xi + lam * pert.phi1(x, y)),
                         y + lam * pert.phi2(x, y))


def _return_step(x: float, y: float, params: ModelParams,
                 pert: Perturbation) -> tuple[float, float]:
    """One step of eta o psi_21: the unwrapped new angle and the new height.

    The only copy of the return-map arithmetic; raises EscapeError when
    y + lam*Phi2 <= 0 or the image height leaves the strip |y| <= 1.
    """
    lam = params.lam
    big_y = y + lam * pert.phi2(x, y)
    if big_y <= 0.0:
        raise EscapeError(CylinderPoint(x, y))
    new_y = big_y ** params.delta
    if new_y > 1.0:
        raise EscapeError(CylinderPoint(x, y))
    new_x = x + params.xi + lam * pert.phi1(x, y) - params.k_omega * math.log(big_y)
    return new_x, new_y


def return_map(p: CylinderPoint, params: ModelParams, pert: Perturbation) -> CylinderPoint:
    """First return map eta o psi_21 on the domain y + lam*Phi2 > 0."""
    new_x, new_y = _return_step(p[0], p[1], params, pert)
    return CylinderPoint(wrap_angle(new_x), new_y)


def rescaled_return_map(p: tuple[float, float], params: ModelParams,
                        pert: Perturbation) -> tuple[float, float]:
    """Return map in (x, ybar) with ybar = y/lam: the conjugate of return_map."""
    lam = params.lam
    if lam <= 0.0:
        raise ValueError("rescaled coordinates need lam > 0")
    q = return_map(CylinderPoint(p[0], lam * p[1]), params, pert)
    return q.x, q.y / lam


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

FD_STEP = 1e-6


def jac_psi21(p, params: ModelParams, pert: Perturbation) -> np.ndarray:
    x, y = p
    lam = params.lam
    return np.array([
        [1.0 + lam * pert.phi1.dx(x, y), lam * pert.phi1.dy(x, y)],
        [lam * pert.phi2.dx(x, y), 1.0 + lam * pert.phi2.dy(x, y)],
    ])


def jac_eta(p, params: ModelParams) -> np.ndarray:
    _, y = p
    return np.array([
        [1.0, -params.k_omega / y],
        [0.0, params.delta * y ** (params.delta - 1.0)],
    ])


def jac_return(p, params: ModelParams, pert: Perturbation) -> np.ndarray:
    """Analytic Jacobian of the return map (chain rule through psi_21)."""
    mid = psi_21(p, params, pert)
    return jac_eta(mid, params) @ jac_psi21(p, params, pert)


def jac_rescaled(p, params: ModelParams, pert: Perturbation) -> np.ndarray:
    """Jacobian in rescaled coordinates, conjugate of jac_return."""
    lam = params.lam
    x, ybar = p
    j = jac_return(CylinderPoint(x, lam * ybar), params, pert)
    out = j.copy()
    out[0, 1] = j[0, 1] * lam
    out[1, 0] = j[1, 0] / lam
    return out


def det_jac_return(p, params: ModelParams, pert: Perturbation) -> float:
    """Determinant via the factorization delta*Y^(delta-1) * det(D psi_21)."""
    x, y = p
    lam = params.lam
    big_y = y + lam * pert.phi2(x, y)
    dpsi = ((1.0 + lam * pert.phi1.dx(x, y)) * (1.0 + lam * pert.phi2.dy(x, y))
            - lam * lam * pert.phi1.dy(x, y) * pert.phi2.dx(x, y))
    return params.delta * big_y ** (params.delta - 1.0) * dpsi


def finite_difference_jacobian(fn, p, h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference Jacobian of a planar map.

    Angle components are compared on the circle, so the step may cross the
    branch cut of the mod-2pi reduction.
    """
    x, y = p

    def delta(pp, pm):
        dx = math.fmod(pp[0] - pm[0], TWO_PI)
        if dx < -math.pi:
            dx += TWO_PI
        elif dx > math.pi:
            dx -= TWO_PI
        return dx, pp[1] - pm[1]

    fx = delta(fn((x + h, y)), fn((x - h, y)))
    fy = delta(fn((x, y + h)), fn((x, y - h)))
    return np.array([
        [fx[0] / (2 * h), fy[0] / (2 * h)],
        [fx[1] / (2 * h), fy[1] / (2 * h)],
    ])

