import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from bykovlab import model as md
from bykovlab.config import load_config
from bykovlab.model import (TWO_PI, CylinderFunction, CylinderPoint,
                            EscapeError, InvalidParamsError, ModelParams,
                            Perturbation, TrigPoly, named_profile,
                            reference_params, reference_perturbation,
                            return_map, wrap_angle)
from scalar_reference import (SLOPED, TANGLED, eta, local_map_o1,
                              local_map_o2, psi_21)


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
        j = md.jac_return(CylinderPoint(1.0, y), ref_params, pert)
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
def test_wrap_angle_range(x):
    w = wrap_angle(x)
    assert 0.0 <= w < TWO_PI
    assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-9)


@given(st.floats(min_value=-100.0, max_value=100.0),
       st.floats(min_value=-100.0, max_value=100.0))
def test_circle_gap_matches_both_reductions(a, b):
    # circle_gap replaced the wrap_angle and np.mod forms bit for bit
    gap = md.circle_gap(a, b)
    assert gap == abs(wrap_angle(a - b + math.pi) - math.pi)
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


@given(y=st.floats(min_value=-0.5, max_value=1.0), **kernel_cases)
@settings(max_examples=300, deadline=None)
def test_kernel_step_matches_return_map_and_factors(x, y, lam, k_omega, pert):
    """Both kernel halves: the same image (bit for bit) and escapes as
    return_map; pinned to eta o psi_21."""
    params = reference_params(lam=lam).with_k_omega(k_omega)
    consts = md._step_constants(params, pert)
    mid = psi_21(CylinderPoint(x, y), params, pert)
    try:
        q = return_map(CylinderPoint(x, y), params, pert)
    except EscapeError:
        for half in (md._return_step, md._image_step):
            with pytest.raises(EscapeError):
                half(x, y, consts)
        assert mid.y <= 0.0 or mid.y ** params.delta > 1.0
        return
    xhat, new_y = md._return_step(x, y, consts)[:2]
    assert (wrap_angle(xhat), new_y) == (q.x, q.y)
    assert md._image_step(x, y, consts)[:3] == (xhat, new_y, mid.y)
    ref = eta(mid, params)
    assert new_y == ref.y
    d = abs(math.fmod(xhat - ref.x, TWO_PI))
    assert min(d, TWO_PI - d) <= 1e-12


@given(y=st.floats(min_value=0.05, max_value=0.85), **kernel_cases)
@settings(max_examples=300, deadline=None)
def test_kernel_jacobian_matches_factors_and_fd(x, y, lam, k_omega, pert):
    """jac_return equals jac_eta @ jac_psi21 to a few ULP and matches FD."""
    params = reference_params(lam=min(lam, 0.05)).with_k_omega(k_omega)
    p = CylinderPoint(x, y)
    fn = lambda q: return_map(CylinderPoint(*q), params, pert)
    try:
        j = md.jac_return(p, params, pert)
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
    _, _, j11, j12, j21, j22, _ = md.step_batch(
        x, lam * ybar, lam, k_omega, md._batch_constants(params, pert))
    det = j11 * j22 - j12 * j21
    scale = np.abs(j11 * j22) + np.abs(j12 * j21)
    for i, (xi, _, li) in enumerate(samples):
        want = md.det_jac_return(CylinderPoint(xi, lam[i] * ybar[i]),
                                 params.with_lambda(li), pert)
        assert abs(det[i] - want) <= 4 * np.finfo(float).eps * scale[i]


@given(x=kernel_cases["x"], y=st.floats(min_value=-0.5, max_value=1.0),
       lam=kernel_cases["lam"], pert=any_pair)
@settings(max_examples=200, deadline=None)
def test_float_rows_equal_pair_rows(x, y, lam, pert):
    """From the same cos and sin, the float kernel's rows equal _pair_rows'
    bit for bit, whatever the order, repetition or harmonic of the terms."""
    params = reference_params(lam=lam)
    _, _, harmonics, rows, _ = md._batch_constants(params, pert)
    xs = np.array([x])
    f, v = md._pair_rows(xs, np.array([y]), harmonics, rows, 2)
    trig = []
    for k in harmonics:  # the cos and sin _pair_rows computes
        kx = xs if k == 1 else k * xs
        trig += [float(np.cos(kx)[0]), float(np.sin(kx)[0])]
    consts = md._step_constants(params, pert)
    slope_row = dict(rows[3])
    for p, profile in enumerate(consts[5:]):
        value = md._row(profile[0], trig)
        slope = 0.0
        if profile[2] is not None:
            slope = md._row(profile[2], trig)
            assert slope == v[slope_row[p]][0]
            value = value + y * slope
        assert value == f[2 * p][0]
        assert md._partials(profile, trig, y) == (f[2 * p + 1][0], slope)
    # the image's written-out value sums, where math's cos and sin agree
    if trig == [g(k * x) for k in harmonics for g in (math.cos, math.sin)]:
        try:
            new_x, _, big_y, got = md._image_step(x, y, consts)
        except EscapeError:
            return
        assert got == trig and big_y == y + lam * f[2][0]
        assert new_x == (x + params.xi + lam * f[0][0]
                         - params.k_omega * math.log(big_y))


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
    harmonics, phi1, phi2 = pert._table[0]
    m1, d1, m1s, d1s = map(_magnitude, phi1)
    m2, d2, m2s, d2s = map(_magnitude, phi2)
    trig = [f(k * x) for k in harmonics for f in (math.cos, math.sin)]
    f2 = md._row(phi2[0], trig)
    if phi2[2] is not None:
        f2 = f2 + y * md._row(phi2[2], trig)
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
def test_step_batch_matches_return_step(orbits, pert):
    """One step_batch call with mixed lam and K_omega: the same escapes as
    _return_step, and each output within 4 ULP of its terms' magnitude.
    image_batch returns step_batch's (new_x, new_y, alive) exactly."""
    x, y, lam, k_omega = (np.array(v) for v in zip(*orbits))
    params = reference_params()
    consts = md._batch_constants(params, pert)
    *out, alive = md.step_batch(x, y, lam, k_omega, consts)
    image = md.image_batch(x, y, lam, k_omega, consts)
    assert len(image) == 3
    for got, want in zip(image, (out[0], out[1], alive)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    eps = np.finfo(float).eps
    for i, (xi, yi, li, ki) in enumerate(orbits):
        consts = (li, params.xi, ki) + md._step_constants(params, pert)[3:]
        try:
            ref = md._return_step(xi, yi, consts)
        except EscapeError:
            assert not alive[i]
            continue
        assert alive[i]
        scales = _step_scales(xi, yi, li, ki, params, pert, ref)
        for got, want, scale in zip(out, ref, scales):
            assert abs(got[i] - want) <= 4 * eps * scale

