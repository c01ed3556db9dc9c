import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from bykovlab import audit as au
from bykovlab import circlemap as cm
from bykovlab.model import (TWO_PI, CylinderFunction, CylinderPoint,
                            Perturbation, TrigPoly, jac_return,
                            reference_params, return_map)


class TestConvergenceTable:
    @pytest.mark.parametrize("a", [0.0, 1.0, math.pi])
    def test_monotone_decrease(self, ref_params, pert, a):
        rows = cm.singular_limit_convergence(ref_params, pert, a,
                                             range(4, 13))
        for key in ("value_err", "d1_err", "second_comp_err"):
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


class TestFloatKernel:
    @given(k_omega=st.floats(min_value=0.5, max_value=12.0),
           a=st.floats(min_value=-3.0, max_value=3.0),
           pair=st.sampled_from(["reference", "sloped"]))
    @settings(max_examples=15, deadline=None)
    def test_rows_match_return_map(self, pert, k_omega, a, pair):
        """Each row against return_map and jac_return at every grid point
        and the family's val and deriv, within H2/H3's floor: numpy's and
        math's log and power may differ by an ULP."""
        p = pert if pair == "reference" else ref.SLOPED
        params = reference_params(omega=k_omega / 3.0)
        family = cm.family_from_model(params, p)
        ulps = au.THRESHOLDS["h2h3_floor_ulps"]
        xs = np.linspace(0.0, TWO_PI, cm.LIMIT_GRID[0], endpoint=False)
        h, dh = family.val(a, xs), family.deriv(xs)
        top = (1.0 + p.phi2_max()) ** params.delta
        n_range = cm.normal_strip_range(params, a, range(3, 7))
        for row in cm.singular_limit_convergence(params, p, a, n_range):
            at, lam = params.with_lambda(row.lam), row.lam
            edge = [return_map(CylinderPoint(x, 0.0), at, p).x
                    for x in xs.tolist()]
            j11 = [jac_return(CylinderPoint(x, 0.0), at, p)[0][0]
                   for x in xs.tolist()]
            cap = min(1.0, lam ** (params.delta - 1.0) * top)
            height = max(return_map(CylinderPoint(x, lam * ybar), at, p).y
                         / lam for x in xs.tolist()
                         for ybar in np.linspace(0.0, cap, cm.LIMIT_GRID[1]))
            lifted = np.abs(family.lift(a + TWO_PI * row.n, xs)).max()
            assert abs(row.value_err - np.max(cm.circle_gap(edge, h))) \
                <= ulps * np.spacing(lifted)
            assert abs(row.d1_err - np.max(np.abs(np.array(j11) - dh))) \
                <= ulps * np.spacing(np.abs(dh).max())
            assert abs(row.second_comp_err - height) \
                <= ulps * np.spacing(height)
            assert row.excluded == 0
            twist = cm.twist_of_lambda(params.k_omega, lam)
            assert row.twist_offset == twist - (a + TWO_PI * row.n)


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
