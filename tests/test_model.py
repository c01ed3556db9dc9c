import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from bykovlab import model as md
from bykovlab.config import load_config
from bykovlab.model import (TWO_PI, CylinderFunction, CylinderPoint,
                            EscapeError, InvalidParamsError, ModelParams,
                            Perturbation, TrigPoly, named_profile,
                            reference_params, reference_perturbation,
                            return_map)
from scalar_reference import (SLOPED, TANGLED, eta, image_step,
                              local_map_o1, local_map_o2, psi_21,
                              step_constants)


class TestParams:
    def test_reference_constants(self):
        p = reference_params()
        assert (p.delta1, p.delta2, p.delta, p.k_omega) == (2.0, 3.0, 6.0, 3.0)

    @pytest.mark.parametrize("omega", [1.0, 2.0, 5.0])
    def test_k_omega_scales_with_omega(self, omega):
        p = reference_params(omega=omega)
        assert p.k_omega == pytest.approx(3.0 * omega, rel=1e-15)

    def test_ordering_boundary_rejected(self):
        with pytest.raises(InvalidParamsError):
            ModelParams(c1=1.0, e1=1.0, omega1=1.0, c2=3.0, e2=1.0, omega2=1.0)
        with pytest.raises(InvalidParamsError):
            ModelParams(c1=2.0, e1=1.0, omega1=-1.0, c2=3.0, e2=1.0, omega2=1.0)
        with pytest.raises(InvalidParamsError):
            reference_params(lam=-0.1)

    def test_with_k_omega_round_trip(self):
        p = reference_params().with_k_omega(5.0)
        assert p.k_omega == pytest.approx(5.0, rel=1e-15)


class TestLocalMaps:
    def test_o1_hand_values(self, ref_params):
        r, phi = local_map_o1(CylinderPoint(0.0, math.exp(-1.0)), ref_params)
        assert r == pytest.approx(math.exp(-2.0), abs=1e-15)
        assert phi == pytest.approx(1.0, abs=1e-15)
        r, phi = local_map_o1(CylinderPoint(0.0, 0.25), ref_params)
        assert r == pytest.approx(0.0625, abs=1e-15)
        assert phi == pytest.approx(math.log(4.0), abs=1e-14)

    def test_o1_trapped(self, ref_params):
        with pytest.raises(ref.TrappedError):
            local_map_o1(CylinderPoint(0.0, 0.0), ref_params)

    def test_o2_hand_values(self, ref_params):
        p = local_map_o2(math.exp(-1.0), 0.0, ref_params)
        assert p.x == pytest.approx(1.0, abs=1e-15)
        assert p.y == pytest.approx(math.exp(-3.0), abs=1e-17)
        p = local_map_o2(1.0, 2.0, ref_params)
        assert (p.x, p.y) == (2.0, 1.0)

    def test_eta_equals_composition(self, ref_params):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = CylinderPoint(float(rng.uniform(0, TWO_PI)),
                              float(rng.uniform(1e-6, 1.0)))
            direct = eta(p, ref_params)
            r, phi = local_map_o1(p, ref_params)
            composed = local_map_o2(r, phi, ref_params)
            assert abs(direct.x - composed.x) <= 1e-14
            assert abs(direct.y - composed.y) <= 1e-14


class TestReturnMap:
    def test_lambda_zero_closed_form(self, ref_params, pert):
        p = CylinderPoint(0.0, math.exp(-1.0))
        q = return_map(p, ref_params, pert)
        assert q.x == pytest.approx(3.0, abs=1e-15)
        assert q.y == pytest.approx(math.exp(-6.0), abs=1e-18)

    def test_against_eta_psi_composition(self, ref_params, pert):
        params = ref_params.with_lambda(0.01)
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = CylinderPoint(float(rng.uniform(0, TWO_PI)),
                              float(rng.uniform(1e-4, 0.5)))
            q = return_map(p, params, pert)
            q2 = eta(psi_21(p, params, pert), params)
            assert abs(q.x - q2.x) <= 1e-14
            assert abs(q.y - q2.y) <= 1e-14 * max(1.0, q.y)

    def test_escape_signal(self, ref_params):
        # a perturbation with a negative Phi2 region exits the domain
        bad = Perturbation(phi1=named_profile("cosine"),
                           phi2=named_profile("constant", value=1.0))
        params = ref_params.with_lambda(0.5)
        p = CylinderPoint(0.0, -0.6)
        with pytest.raises(EscapeError) as exc:
            return_map(p, params, bad)
        assert exc.value.point == p

    def test_strip_exit_is_escape(self, ref_params, pert):
        params = ref_params.with_lambda(0.5)
        with pytest.raises(EscapeError):
            return_map(CylinderPoint(math.pi / 2.0, 0.9), params, pert)

    def test_psi21_height_strictly_increases(self, ref_params, pert):
        params = ref_params.with_lambda(0.01)
        xs = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        for x in xs:
            p = CylinderPoint(float(x), 0.3)
            q = psi_21(p, params, pert)
            assert q.y > p.y + 0.01 * 0.09  # lam * (min Phi2 - slack)


class TestRescaled:
    def test_second_component_bound(self, ref_params, pert):
        """In ybar = y/lam, the image height stays under lam^5 (1 + max Phi2)^6."""
        lam = 1e-3
        params = ref_params.with_lambda(lam)
        bound = lam ** 5 * (1.0 + pert.phi2_max()) ** 6
        for x in np.linspace(0.0, TWO_PI, 32, endpoint=False):
            for ybar in np.linspace(0.0, 1.0, 8):
                q = return_map(CylinderPoint(float(x), lam * float(ybar)),
                               params, pert)
                assert q.y / lam <= bound * (1.0 + 1e-12)


class TestJacobians:
    def test_lambda_zero_matrix(self, ref_params, pert):
        y = 0.3
        j = np.array(md.jac_return(CylinderPoint(1.0, y), ref_params, pert))
        expect = np.array([[1.0, -3.0 / y], [0.0, 6.0 * y ** 5]])
        assert np.allclose(j, expect, rtol=1e-12)

    def test_det_factorization_against_fd(self, ref_params, pert):
        params = ref_params.with_lambda(0.01)
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = CylinderPoint(float(rng.uniform(0, TWO_PI)),
                              float(rng.uniform(0.05, 0.5)))
            det_analytic = md.det_jac_return(p, params, pert)
            fd = ref.finite_difference_jacobian(
                lambda q: return_map(q, params, pert), p)
            det_fd = float(np.linalg.det(fd))
            assert det_fd == pytest.approx(det_analytic, rel=1e-6)


class TestPerturbation:
    def test_reference_is_valid(self, pert):
        pert.validate()

    def test_positivity_violation_detected(self):
        bad = Perturbation(phi1=named_profile("cosine"),
                           phi2=named_profile("offset_sine", offset=0.5))
        with pytest.raises(md.MorseError):
            bad.validate()

    # Phi2 = 2 + sin^4 x = 2 + (3 - 4 cos 2x + cos 4x)/8: ln Phi2 has
    # quartic minima at 0 and pi.  Phi2 = 2 + (1 - cos x)^2 has one, at 0,
    # where only the step from the last grid node round to 2pi brackets it.
    @pytest.mark.parametrize("terms, constant, exact", [
        (((2, -0.5, 0.0), (4, 0.125, 0.0)), 2.375,
         lambda x: 2.0 + np.sin(x) ** 4),
        (((1, -2.0, 0.0), (2, 0.5, 0.0)), 3.5,
         lambda x: 2.0 + (1.0 - np.cos(x)) ** 2)], ids=["sin4", "wrap"])
    def test_degenerate_log_critical_point_detected(self, terms, constant,
                                                    exact):
        quartic = CylinderFunction(TrigPoly(constant, terms))
        xs = np.linspace(0.0, TWO_PI, md.PROFILE_GRID, endpoint=False)
        assert np.allclose(quartic.base(xs), exact(xs))
        assert quartic.base.d1(xs[0]) == 0.0
        bad = Perturbation(phi1=named_profile("cosine"), phi2=quartic)
        with pytest.raises(md.MorseError, match="degenerate critical point"):
            bad.validate()

    @pytest.mark.parametrize("config", sorted(
        (Path(__file__).parent.parent / "scripts").glob("*.yaml")),
        ids=lambda p: p.name)
    def test_script_configs_load(self, config):
        # load_config validates the perturbation pair of each config
        assert load_config(config).pert.phi2.section().terms

    def test_trig_poly_derivatives(self):
        tp = TrigPoly(1.1, ((1, 0.0, 1.0), (3, 0.5, 0.0)))
        xs = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        h = 1e-5
        fd1 = (tp(xs + h) - tp(xs - h)) / (2 * h)
        assert np.allclose(tp.d1(xs), fd1, atol=1e-8)
        fd2 = (tp(xs + h) - 2 * tp(xs) + tp(xs - h)) / h ** 2
        assert np.allclose(tp.d2(xs), fd2, atol=1e-4)


@given(st.floats(min_value=-100.0, max_value=100.0))
@example(-1.1e-16)  # within rounding of 0 from below: reduces to 2pi
@example(-0.0)
@example(-TWO_PI)
@example(-2.0 * TWO_PI)
def test_angle_rule_float_and_array_agree(x):
    """The one angle rule: `%` on a float and np.remainder on an array give
    the same bits, in [0, 2pi], and a zero result is +0."""
    w = x % TWO_PI
    assert repr(w) == repr(np.remainder(np.array([x]), TWO_PI).tolist()[0])
    assert 0.0 <= w <= TWO_PI and math.copysign(1.0, w) == 1.0
    assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-9)


@given(st.floats(min_value=-100.0, max_value=100.0),
       st.floats(min_value=-100.0, max_value=100.0))
def test_circle_gap_matches_both_reductions(a, b):
    # circle_gap is the `%` and np.mod forms, bit for bit
    gap = md.circle_gap(a, b)
    assert gap == abs((a - b + math.pi) % TWO_PI - math.pi)
    assert gap == np.abs(np.mod(np.array([a]) - b + math.pi, TWO_PI)
                         - math.pi)[0]
    assert 0.0 <= gap <= math.pi


@given(st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
       st.floats(min_value=1e-5, max_value=0.9),
       st.floats(min_value=1e-5, max_value=0.05))
@settings(max_examples=50)
def test_return_map_height_positive_and_bounded(x, y, lam):
    params = reference_params(lam=lam)
    pert = reference_perturbation()
    try:
        q = return_map(CylinderPoint(x, y), params, pert)
    except EscapeError:
        return
    assert 0.0 < q.y < (1.0 + lam * pert.phi2_max()) ** 6


kernel_cases = dict(
    x=st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
    lam=st.floats(min_value=1e-5, max_value=0.5),
    k_omega=st.floats(min_value=0.1, max_value=20.0),
    pert=st.sampled_from([reference_perturbation(), SLOPED]))
# also a pair whose terms TrigPoly sums in another order than the kernels
any_pair = st.sampled_from([reference_perturbation(), SLOPED, TANGLED])
# the heights of a fixed draw on (1e-4, 1) where numpy's log and math's
# differ (about 0.3% of them; which ones depends on the libm, so they are
# found at run time): stepped at lam = 0, where Y = y, they tell an array
# kernel's log from math's
_draw = np.random.default_rng(0).uniform(1e-4, 1.0, 4096)
LOG_SPLIT = _draw[np.log(_draw) != [math.log(v) for v in _draw.tolist()]]


def _same(got, want) -> bool:
    """Equal dtypes and shapes and equal bits: floats have their NaNs in the
    same places and every other entry, the sign of a zero included, the
    same uint64 bits."""
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    if got.dtype.kind != "f":
        return np.array_equal(got, want)
    nan = np.isnan(got)
    return np.array_equal(nan, np.isnan(want)) and np.array_equal(
        got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@given(y=st.floats(min_value=-0.5, max_value=1.0), **kernel_cases)
@settings(max_examples=300, deadline=None)
def test_kernel_step_matches_return_map_and_factors(x, y, lam, k_omega, pert):
    """Both float kernel functions: the same image (bit for bit) and escapes
    as return_map; pinned to eta o psi_21."""
    params = reference_params(lam=lam).with_k_omega(k_omega)
    image, step = pert._kernel
    scalars = params._step_scalars
    mid = psi_21(CylinderPoint(x, y), params, pert)
    try:
        q = return_map(CylinderPoint(x, y), params, pert)
    except EscapeError:
        for half in (step, image):
            with pytest.raises(EscapeError):
                half(x, y, scalars)
        assert mid.y <= 0.0 or mid.y ** params.delta > 1.0
        return
    xhat, new_y = step(x, y, scalars)[:2]
    assert (xhat % TWO_PI, new_y) == (q.x, q.y)
    assert image(x, y, scalars) == (xhat, new_y)
    consts = step_constants(params, pert)
    assert image_step(x, y, consts)[:3] == (xhat, new_y, mid.y)
    ref = eta(mid, params)
    assert new_y == ref.y
    assert md.circle_gap(xhat, ref.x) <= 1e-12


@given(y=st.floats(min_value=0.05, max_value=0.85), **kernel_cases)
@settings(max_examples=300, deadline=None)
def test_kernel_jacobian_matches_factors_and_fd(x, y, lam, k_omega, pert):
    """jac_return equals jac_eta @ jac_psi21 to a few ULP and matches FD."""
    params = reference_params(lam=min(lam, 0.05)).with_k_omega(k_omega)
    p = CylinderPoint(x, y)
    fn = lambda q: return_map(CylinderPoint(*q), params, pert)
    try:
        j = np.array(md.jac_return(p, params, pert))
        fd = ref.finite_difference_jacobian(fn, p)
    except EscapeError:
        assume(False)
    a = ref.jac_eta(psi_21(p, params, pert), params)
    b = ref.jac_psi21(p, params, pert)
    # rounding bound of a 2x2 matrix product: a few eps times |A| @ |B|
    assert np.all(np.abs(j - a @ b) <= 4 * np.finfo(float).eps
                  * (np.abs(a) @ np.abs(b)))
    for row in range(2):
        scale = np.max(np.abs(j[row]))
        assert np.max(np.abs(fd[row] - j[row])) <= 1e-6 * scale


@given(y=st.floats(min_value=-0.5, max_value=1.0), **kernel_cases)
@settings(max_examples=300, deadline=None)
def test_jac_return_is_the_kernel_steps_floats(x, y, lam, k_omega, pert):
    """jac_return gives ((j11, j12), (j21, j22)) as Python floats, bit for
    bit the compiled step's last four entries, and raises EscapeError at
    the inputs where return_map does."""
    params = reference_params(lam=lam).with_k_omega(k_omega)
    p = CylinderPoint(x, y)
    try:
        return_map(p, params, pert)
    except EscapeError:
        with pytest.raises(EscapeError):
            md.jac_return(p, params, pert)
        return
    jac = md.jac_return(p, params, pert)
    assert type(jac) is tuple and [type(row) for row in jac] == [tuple] * 2
    entries = [v for row in jac for v in row]
    assert [type(v) for v in entries] == [float] * 4
    step = pert._kernel[1](x, y, params._step_scalars)
    assert [v.hex() for v in entries] == [v.hex() for v in step[2:]]


@given(y=st.floats(min_value=-0.5, max_value=1.0), **kernel_cases)
@settings(max_examples=300, deadline=None)
def test_det_jac_return_matches_factored_reference(x, y, lam, k_omega, pert):
    """The kernel-table determinant equals the factored one bit for bit."""
    params = reference_params(lam=lam).with_k_omega(k_omega)
    for p in (CylinderPoint(x, y), CylinderPoint(x, np.float64(y))):
        assert (md.det_jac_return(p, params, pert)
                == ref.det_jac_return(p, params, pert))


@given(samples=st.lists(st.tuples(kernel_cases["x"],
                                  st.floats(min_value=0.0, max_value=1.0),
                                  kernel_cases["lam"]),
                        min_size=1, max_size=8),
       k_omega=kernel_cases["k_omega"], pert=kernel_cases["pert"])
@settings(max_examples=200, deadline=None)
def test_step_batch_determinant_matches_det_jac_return(samples, k_omega,
                                                       pert):
    """H1's determinant: j11*j22 - j12*j21 of one step_batch call with a
    lam per sample, at y = lam*ybar, within 4 ULP of |j11*j22| + |j12*j21|
    of det_jac_return."""
    x, ybar, lam = (np.array(v) for v in zip(*samples))
    params = reference_params().with_k_omega(k_omega)
    _, _, j11, j12, j21, j22, _ = md.step_batch(x, lam * ybar, lam, k_omega,
                                                params, pert)
    det = j11 * j22 - j12 * j21
    scale = np.abs(j11 * j22) + np.abs(j12 * j21)
    for i, (xi, _, li) in enumerate(samples):
        want = md.det_jac_return(CylinderPoint(xi, lam[i] * ybar[i]),
                                 params.with_lambda(li), pert)
        assert abs(det[i] - want) <= 4 * np.finfo(float).eps * scale[i]


@given(x=kernel_cases["x"], y=st.floats(min_value=-0.5, max_value=1.0),
       lam=kernel_cases["lam"], pert=any_pair)
@settings(max_examples=200, deadline=None)
def test_float_rows_equal_array_kernel_rows(x, y, lam, pert):
    """The compiled array kernel's image, Y, cos, sin and Jacobian of one
    orbit, and of LOG_SPLIT's heights at lam = 0 and K_omega = 1, are the
    float rows summed on arrays (tests/scalar_reference.array_image and
    array_step, contract: bits; NaN equal to NaN), whatever the order,
    repetition or harmonic of the terms; where math's cos and sin agree
    with numpy's, so are the float rows' Y and the compiled float image's
    angle."""
    assert LOG_SPLIT.size
    params = reference_params(lam=lam)
    image, jac = pert._array_kernel
    delta = params.delta
    zeros, ones = np.zeros(LOG_SPLIT.size), np.ones(LOG_SPLIT.size)
    xs, ys, lams, ks = (np.concatenate(([v], col)) for v, col in (
        (x, zeros), (y, LOG_SPLIT), (lam, zeros), (params.k_omega, ones)))
    with np.errstate(all="ignore"):
        got = image(xs, ys, lams, ks, params.xi, delta)
        want = ref.array_image(xs, ys, lams, ks, params, pert)
        assert all(_same(g, w) for g, w in zip((*got[:3], *got[3]),
                                               (*want[:3], *want[3])))
        assert all(_same(g, w) for g, w in zip(
            jac(got[3], ys, got[2], lams, ks, delta),
            ref.array_step(xs, ys, lams, ks, params, pert)[2:6]))
    # the float rows and the compiled float image, at the same cos and sin
    trig = [float(v[0]) for v in got[3]]
    if got[2][0] > 0.0 and got[1][0] <= 1.0 and trig == [
            g(h * x) for h in pert._table[0] for g in (math.cos, math.sin)]:
        new_x, _, big_y, _ = ref.image_step(x, y,
                                            ref.step_constants(params, pert))
        assert big_y == got[2][0]
        assert pert._kernel[0](x, y, params._step_scalars)[0] == new_x


@given(orbits=st.lists(st.tuples(st.floats(min_value=-10.0, max_value=10.0),
                                 st.floats(min_value=-1.0, max_value=1.5),
                                 st.floats(min_value=0.0, max_value=1.0),
                                 kernel_cases["k_omega"]),
                       min_size=1, max_size=8),
       pert=any_pair, xi=st.floats(min_value=-1.0, max_value=1.0),
       deltas=st.sampled_from([(2.0, 3.0), (2.0, 1.5), (1.25, 1.6)])
       | st.tuples(st.floats(1.01, 4.0), st.floats(1.01, 4.0)))
@settings(max_examples=300, deadline=None)
@example(orbits=[(0.5, 1.0, 0.0, 5.0), (0.5, 1e-3, 1e-3, 5.0)],  # y' = 1
         pert=reference_perturbation(), xi=0.0, deltas=(2.0, 3.0))
def test_array_kernel_equals_table_columns(orbits, pert, xi, deltas):
    """The compiled array kernel equals the float rows summed on arrays
    (tests/scalar_reference.array_step and array_image, contract: bits):
    every output of step_batch and of the image, bit for bit by _same (NaN
    equal to NaN, -0 unequal to +0).  The orbits mix lam, K_omega, escapes
    through Y <= 0 and through a new height above 1, and LOG_SPLIT's
    heights at lam = 0 and K_omega = 1 from x = -xi, whose new angle is
    -log(Y) exactly."""
    assert LOG_SPLIT.size
    orbits = orbits + [(-xi, v, 0.0, 1.0) for v in LOG_SPLIT.tolist()]
    x, y, lam, k_omega = (np.array(v) for v in zip(*orbits))
    params = ModelParams(c1=deltas[0], e1=1.0, omega1=1.0, c2=deltas[1],
                         e2=1.0, omega2=1.0, xi=xi)
    with np.errstate(all="ignore"):
        got = md.step_batch(x, y, lam, k_omega, params, pert)
        want = ref.array_step(x, y, lam, k_omega, params, pert)
        assert len(got) == len(want) == 7
        assert all(_same(g, w) for g, w in zip(got, want))
        want = ref.array_image(x, y, lam, k_omega, params, pert)
        out = [np.empty_like(x) for _ in range(3)]
        trig = tuple(np.empty((2 * len(pert._table[0]), len(x))))
        new_x, new_y, big_y, got_trig = pert._array_kernel[0](
            x, y, lam, k_omega, xi, params.delta, *out, trig)
    assert all(g is w for g, w in zip((new_x, new_y, big_y), out))
    assert all(_same(g, w) for g, w in zip(
        (new_x, new_y, big_y, *got_trig), (*want[:3], *want[3])))


# pairs the float kernel is compiled from: harmonics that are 0, negative,
# repeated or out of order, slopes on neither, either or both profiles, and
# coefficients that are negative or exactly zero (of either sign)
coefficients = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                         st.floats(min_value=-2.0, max_value=2.0))
trig_polys = st.builds(
    TrigPoly, coefficients,
    st.lists(st.tuples(st.integers(min_value=-3, max_value=3), coefficients,
                       coefficients), max_size=4).map(tuple))
profiles = st.builds(CylinderFunction, trig_polys,
                     st.one_of(st.none(), trig_polys))


def _outcome(fn, *args):
    """Every bit of fn's floats, or the type and point of what it raised."""
    try:
        return [v.hex() for v in fn(*args)]
    except (EscapeError, ArithmeticError, ValueError) as exc:
        return type(exc), getattr(exc, "point", None)


# Phi2 alone has a y-slope, and 1 + lam*Phi2_y = 0 at lam = 1: j12 is
# lam*0.0 - r*0.0 = +0.0 in both references, never -0.0
ZERO_P22 = {"phi1": CylinderFunction(TrigPoly(0.0, ()), None),
            "phi2": CylinderFunction(TrigPoly(1.0, ()), TrigPoly(-1.0, ())),
            "x": 0.0, "y": 0.0, "lam": 1.0, "xi": 0.0, "k_omega": 1.0,
            "delta": 2.0}


@example(**ZERO_P22)
@given(phi1=profiles, phi2=profiles,
       x=st.floats(min_value=-10.0, max_value=10.0),
       y=st.floats(min_value=-1.0, max_value=1.0),
       lam=st.floats(min_value=0.0, max_value=1.0),
       xi=st.floats(min_value=-1.0, max_value=1.0),
       k_omega=st.floats(min_value=0.1, max_value=20.0),
       delta=st.floats(min_value=1.01, max_value=10.0))
@settings(max_examples=300, deadline=None)
def test_compiled_kernel_matches_interpretive_reference(phi1, phi2, x, y, lam,
                                                        xi, k_omega, delta):
    """The compiled image and step equal the loops over the float rows bit
    for bit, and raise EscapeError at the same inputs."""
    pert = Perturbation(phi1, phi2)
    image, step = pert._kernel
    scalars = (lam, xi, k_omega, delta)
    consts = scalars + pert._table
    want = _outcome(ref.return_step, x, y, consts)
    assert _outcome(step, x, y, scalars) == want
    assert _outcome(image, x, y, scalars) == (
        want[:2] if isinstance(want, list) else want)


def test_array_kernel_j12_sign_where_p22_is_zero():
    """At ZERO_P22, step_batch's j12 has ref.array_step's bits, +0.0:
    np.array_equal, which the other array pins use, takes -0.0 == 0.0."""
    pert = Perturbation(ZERO_P22["phi1"], ZERO_P22["phi2"])
    x, y, lam, k_omega = (np.array([ZERO_P22[k]])
                          for k in ("x", "y", "lam", "k_omega"))
    params = reference_params()  # xi = 0; delta does not enter j12
    got = md.step_batch(x, y, lam, k_omega, params, pert)[3]
    want = ref.array_step(x, y, lam, k_omega, params, pert)[3]
    assert want.tolist() == [0.0] and math.copysign(1.0, want[0]) == 1.0
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("phi1_slope, phi2_slope", [
    (False, False), (True, False), (False, True), (True, True)],
    ids=["neither", "phi1", "phi2", "both"])
def test_chain_rule_slope_cases_match_both_references(phi1_slope, phi2_slope):
    """Each slope case of the shared chain rule, on SLOPED with the named
    slopes kept: the float kernel's step is ref.return_step bit for bit
    and step_batch is ref.array_step, on a fixed grid of orbits inside the
    strip, and the Jacobian is the finite-difference one."""
    pert = Perturbation(
        replace(SLOPED.phi1, slope=SLOPED.phi1.slope if phi1_slope else None),
        replace(SLOPED.phi2, slope=SLOPED.phi2.slope if phi2_slope else None))
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, TWO_PI, 16)
    y = rng.uniform(0.05, 0.5, 16)
    lam = rng.uniform(1e-4, 0.05, 16)
    k_omega = rng.uniform(0.2, 10.0, 16)
    params = reference_params()
    got = md.step_batch(x, y, lam, k_omega, params, pert)
    want = ref.array_step(x, y, lam, k_omega, params, pert)
    assert all(_same(g, w) for g, w in zip(got, want))
    assert np.all(got[6] > 0.0) and np.all(got[1] <= 1.0)
    step = pert._kernel[1]
    for xi, yi, li, ki in zip(*(v.tolist() for v in (x, y, lam, k_omega))):
        scalars = reference_params(lam=li).with_k_omega(ki)._step_scalars
        assert _outcome(step, xi, yi, scalars) == _outcome(
            ref.return_step, xi, yi, scalars + pert._table)
        fd = ref.finite_difference_jacobian(
            lambda q: step(q[0], q[1], scalars)[:2], (xi, yi))
        jac = np.array(step(xi, yi, scalars)[2:]).reshape(2, 2)
        assert np.allclose(jac, fd, rtol=1e-4, atol=1e-6)


def test_kernel_built_lazily_once_per_perturbation(monkeypatch):
    """Loading a config compiles nothing (setup stays lean); the first
    return_map compiles the pair's kernel, and later calls reuse it."""
    compiled = []
    real = md._float_kernel
    monkeypatch.setattr(md, "_float_kernel",
                        lambda floats: compiled.append(floats) or real(floats))
    cfg = load_config(str(Path(__file__).parents[1] / "scripts"
                          / "superstable.yaml"))
    assert "_kernel" not in vars(cfg.pert) and not compiled
    p = CylinderPoint(0.5, 1e-3)
    q = return_map(p, cfg.params, cfg.pert)
    kernel = cfg.pert._kernel
    md.jac_return(q, cfg.params, cfg.pert)
    return_map(q, cfg.params.with_lambda(2e-3), cfg.pert)
    assert compiled == [cfg.pert._table] and cfg.pert._kernel is kernel
    other = replace(cfg.pert)  # an equal pair is another Perturbation
    return_map(p, cfg.params, other)
    assert len(compiled) == 2 and other._kernel is not kernel


def _magnitude(row) -> float:
    """Bound on the value of one float row of Perturbation._table."""
    if row is None:
        return 0.0
    c0, terms = row
    return abs(c0) + sum(abs(a) for _, a in terms)


def _step_scales(x, y, lam, k_omega, params, pert, image) -> list[float]:
    """Per output of one return step, the magnitude its rounding scales with.

    The summed terms' magnitudes, with the height sum Y = y + lam*Phi2
    entering through its condition number (|y| + lam*|Phi2|)/Y.
    """
    harmonics, phi1, phi2 = pert._table
    m1, d1, m1s, d1s = map(_magnitude, phi1)
    m2, d2, m2s, d2s = map(_magnitude, phi2)
    trig = [f(k * x) for k in harmonics for f in (math.cos, math.sin)]
    f2 = ref.row(phi2[0], trig)
    if phi2[2] is not None:
        f2 = f2 + y * ref.row(phi2[2], trig)
    big_y = y + lam * f2
    kappa = (abs(y) + lam * (m2 + abs(y) * m2s)) / big_y
    e12 = k_omega / big_y
    e22 = params.delta * big_y ** (params.delta - 1.0)
    f2x = lam * (d2 + abs(y) * d2s)
    return [abs(x) + abs(params.xi) + lam * (m1 + abs(y) * m1s)
            + k_omega * (abs(math.log(big_y)) + kappa),
            image[1] * (1.0 + params.delta * kappa),
            1.0 + lam * (d1 + abs(y) * d1s) + e12 * f2x * (1.0 + kappa),
            lam * m1s + e12 * (1.0 + lam * m2s) * (1.0 + kappa),
            e22 * f2x * (1.0 + params.delta * kappa),
            e22 * (1.0 + lam * m2s) * (1.0 + params.delta * kappa)]


@given(orbits=st.lists(st.tuples(kernel_cases["x"],
                                 st.floats(min_value=-0.5, max_value=1.0),
                                 kernel_cases["lam"], kernel_cases["k_omega"]),
                       min_size=1, max_size=8),
       pert=any_pair)
@settings(max_examples=200, deadline=None)
@example(orbits=[(0.5, -0.25, 0.0, 5.0), (0.5, 0.0, 0.0, 5.0),  # Y < 0, = 0
                 (0.5, 1e-3, 1e-3, 5.0)], pert=reference_perturbation())
def test_step_batch_matches_return_step(orbits, pert):
    """One step_batch call with mixed lam and K_omega raises no
    RuntimeWarning, even off the domain, where it returns the raw Y
    (at lam = 0, Y is y, also where y <= 0).  The float kernel's step
    raises EscapeError exactly where not (Y > 0 and new height <= 1), and
    elsewhere each output is within 4 ULP of its terms' magnitude.
    The array kernel's image returns step_batch's (new_x, new_y, Y)
    exactly."""
    x, y, lam, k_omega = (np.array(v) for v in zip(*orbits))
    params = reference_params()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *out, big_y = md.step_batch(x, y, lam, k_omega, params, pert)
    with np.errstate(all="ignore"):
        image = pert._array_kernel[0](x, y, lam, k_omega, params.xi,
                                      params.delta)
    assert len(image) == 4
    assert all(_same(g, w) for g, w in zip(image, (out[0], out[1], big_y)))
    eps = np.finfo(float).eps
    for i, (xi, yi, li, ki) in enumerate(orbits):
        if li == 0.0:
            assert big_y[i] == yi
        inside = big_y[i] > 0.0 and out[1][i] <= 1.0
        try:
            step = pert._kernel[1](xi, yi, (li, params.xi, ki, params.delta))
        except EscapeError:
            assert not inside
            continue
        assert inside
        scales = _step_scales(xi, yi, li, ki, params, pert, step)
        for got, want, scale in zip(out, step, scales):
            assert abs(got[i] - want) <= 4 * eps * scale
