import math
import sys

import numpy as np
import pytest

import scalar_reference as ref
from bykovlab import circlemap as cm
from bykovlab.model import (TWO_PI, CylinderFunction, CylinderPoint,
                            Perturbation, TrigPoly, reference_params,
                            return_map)


class TestConvergenceTable:
    @pytest.mark.parametrize("a", [0.0, 1.0, math.pi])
    def test_monotone_decrease(self, ref_params, pert, a):
        rows = cm.singular_limit_convergence(ref_params, pert, a,
                                             range(4, 13))
        for key in ("value_err", "d1_err", "d2_err", "second_comp_err"):
            seq = [getattr(r, key) for r in rows]
            assert all(b < a_ for a_, b in zip(seq, seq[1:])), key

    def test_second_component_bound(self, ref_params, pert):
        rows = cm.singular_limit_convergence(ref_params, pert, 1.0,
                                             range(4, 13))
        for r in rows:
            bound = r.lam ** (ref_params.delta - 1.0) * 2.1 ** 6
            assert r.second_comp_err <= bound * (1.0 + 1e-12)

    def test_error_ratio_matches_sequence_geometry(self, ref_params, pert):
        # dominant error term scales like lambda, so consecutive ratios
        # approach exp(-2*pi/K) (the lambda-sequence ratio)
        rows = cm.singular_limit_convergence(ref_params, pert, 0.5,
                                             range(6, 12))
        expected = math.exp(-TWO_PI / ref_params.k_omega)
        ratios = [rows[i + 1].value_err / rows[i].value_err
                  for i in range(len(rows) - 1)]
        for r in ratios:
            assert r == pytest.approx(expected, rel=0.05)

    def test_no_exclusions_for_reference(self, ref_params, pert):
        rows = cm.singular_limit_convergence(ref_params, pert, 1.0,
                                             range(4, 8))
        assert all(r.excluded == 0 for r in rows)


class TestArrayTable:
    """The one-array table against the one-n-at-a-time reference."""

    @pytest.mark.parametrize("pair", ["reference", "sloped"])
    @pytest.mark.parametrize("a", [0.0, 1.0, -2.0])
    @pytest.mark.parametrize("k_omega", [0.3, 5.0, 8.0])
    def test_matches_scalar_reference(self, pert, pair, a, k_omega):
        p = pert if pair == "reference" else ref.SLOPED
        params = reference_params(omega=k_omega / 3.0)
        # at K_omega = 0.3 the strip scale lambda^5 is subnormal from n = 7
        # (n = 8 at a = -2), which the table rejects
        n_range = range(1, 13 if k_omega > 1.0 else 7)
        # repr also tells a numpy scalar from a Python float
        assert repr(cm.singular_limit_convergence(params, p, a, n_range)) \
            == repr(ref.singular_limit_convergence(params, p, a, n_range))

    @pytest.mark.parametrize("k_omega, a, n_min, first_bad", [
        (5.0, 0.0, 100, 113), (0.3, 0.0, 1, 7), (0.3, -2.0, 1, 8)])
    def test_subnormal_strip_scale_is_named(self, pert, k_omega, a, n_min,
                                            first_bad):
        """lambda_(a,n)^(delta-1) below the smallest normal float (at K = 5,
        a = 0 from n = 113, and 0.0 from n = 119) is rejected at the first
        such n, not tabulated over a collapsed strip."""
        params = reference_params(omega=k_omega / 3.0)
        lam = cm.lambda_sequences(k_omega, first_bad, a)[1]
        assert lam ** 5 < sys.float_info.min
        with pytest.raises(ValueError, match=(
                rf"strip scale .* is not a normal float at n={first_bad}, "
                rf"K_omega={k_omega}: ")):
            cm.singular_limit_convergence(params, pert, a,
                                          range(n_min, first_bad + 5))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_excluded_points_match_scalar_reference(self):
        # a steep negative slope puts ybar + Phi2(x, lam*ybar) <= 0 on part
        # of the strip for the larger lam
        p = Perturbation(
            phi1=CylinderFunction(TrigPoly(0.0, ((1, 1.0, 0.0),))),
            phi2=CylinderFunction(TrigPoly(1.1, ((1, 0.0, 1.0),)),
                                  slope=TrigPoly(-50.0, ())))
        params = reference_params(omega=8.0 / 3.0)
        rows = cm.singular_limit_convergence(params, p, 0.0, range(1, 6))
        assert rows[0].excluded > 0
        assert repr(rows) == repr(
            ref.singular_limit_convergence(params, p, 0.0, range(1, 6)))


class TestLimitAgreement:
    def test_rescaled_first_component_approaches_family(self, ref_params,
                                                        pert):
        """F at lambda_(a,n) converges to the circle family on ybar = 0."""
        a = 1.0
        family = cm.family_from_model(ref_params, pert)
        _, lam = cm.lambda_sequences(ref_params.k_omega, 10, a)
        params = ref_params.with_lambda(lam)
        for x in np.linspace(0.0, TWO_PI, 32, endpoint=False):
            q = return_map(CylinderPoint(float(x), 0.0), params, pert)
            got, second = q.x, q.y / lam
            want = family.val(a, float(x))
            d = abs(got - want)
            assert min(d, TWO_PI - d) < 1e-8
            assert second < 1e-30
