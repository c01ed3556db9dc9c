import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bykovlab import model as md
from bykovlab.model import (TWO_PI, CylinderPoint, EscapeError,
                            InvalidParamsError, ModelParams, Perturbation,
                            TrigPoly, eta, local_map_o1, local_map_o2,
                            named_profile, psi_21, reference_params,
                            reference_perturbation, return_map, wrap_angle)


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
        with pytest.raises(md.TrappedError):
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
    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 0.1])
    def test_conjugacy(self, ref_params, pert, lam):
        params = ref_params.with_lambda(lam)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = float(rng.uniform(0, TWO_PI))
            ybar = float(rng.uniform(1e-3, 1.0))
            direct = md.rescaled_return_map((x, ybar), params, pert)
            q = return_map(CylinderPoint(x, lam * ybar), params, pert)
            assert abs(direct[0] - q.x) <= 1e-12
            assert abs(direct[1] - q.y / lam) <= 1e-12 * max(1.0, abs(direct[1]))

    def test_lambda_zero_rejected(self, ref_params, pert):
        with pytest.raises(ValueError):
            md.rescaled_return_map((0.1, 0.5), ref_params, pert)

    def test_second_component_bound(self, ref_params, pert):
        lam = 1e-3
        params = ref_params.with_lambda(lam)
        bound = lam ** 5 * (1.0 + pert.phi2_max()) ** 6
        for x in np.linspace(0.0, TWO_PI, 32, endpoint=False):
            for ybar in np.linspace(0.0, 1.0, 8):
                _, out = md.rescaled_return_map((float(x), float(ybar)),
                                                params, pert)
                assert out <= bound * (1.0 + 1e-12)


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
            fd = md.finite_difference_jacobian(
                lambda q: return_map(q, params, pert), p)
            det_fd = float(np.linalg.det(fd))
            assert det_fd == pytest.approx(det_analytic, rel=1e-6)

    def test_rescaled_jacobian_similarity(self, ref_params, pert):
        lam = 1e-2
        params = ref_params.with_lambda(lam)
        p = (1.0, 0.4)
        jr = md.jac_rescaled(p, params, pert)
        j = md.jac_return(CylinderPoint(1.0, lam * 0.4), params, pert)
        s = np.diag([1.0, 1.0 / lam])
        assert np.allclose(jr, s @ j @ np.linalg.inv(s), rtol=1e-10)


class TestPerturbation:
    def test_reference_is_valid(self, pert):
        pert.validate()

    def test_positivity_violation_detected(self):
        bad = Perturbation(phi1=named_profile("cosine"),
                           phi2=named_profile("offset_sine", offset=0.5))
        with pytest.raises(md.MorseError):
            bad.validate()

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
