import math

import numpy as np
import pytest

import scalar_reference as ref
from bykovlab import circlemap as cm
from bykovlab.model import (CylinderPoint, TWO_PI, jac_return, return_map,
                            wrap_angle)


class TestSearch:
    def test_roots_satisfy_superstability(self, family_k5):
        roots = cm.superstable_search(family_k5, 2,
                                      a_window=(-TWO_PI, 0.0))
        assert roots
        for s in roots:
            assert s.residual <= 1e-10
            assert s.deriv_residual <= 1e-10
            # circle check: second iterate returns to the critical point
            x = family_k5.val(s.a_star, s.critical_point)
            x = family_k5.val(s.a_star, x)
            d = abs(wrap_angle(x - s.critical_point))
            assert min(d, TWO_PI - d) < 1e-9

    def test_at_least_one_root_per_window(self, family_k5):
        for window in ((0.0, TWO_PI), (-TWO_PI, 0.0)):
            assert cm.superstable_search(family_k5, 2, a_window=window)

    def test_fixed_point_period_one(self, family_k5):
        roots = cm.superstable_search(family_k5, 1, a_window=(0.0, TWO_PI))
        for s in roots:
            x = family_k5.val(s.a_star, s.critical_point)
            d = abs(wrap_angle(x - s.critical_point))
            assert min(d, TWO_PI - d) < 1e-9

    def test_pullback_sequence_form(self, family_k5):
        s = cm.superstable_search(family_k5, 2, a_window=(-TWO_PI, 0.0))[0]
        for n, lam in enumerate(s.lambdas, start=1):
            assert lam == pytest.approx(
                math.exp((s.a_star - TWO_PI * n) / family_k5.k_omega),
                rel=1e-14)
        assert all(b < a for a, b in zip(s.lambdas, s.lambdas[1:]))

    def test_needs_critical_points(self, family_k03):
        with pytest.raises(cm.EmptyCriticalSetError):
            cm.superstable_search(family_k03, 2)

    def test_unsupported_period(self, family_k5):
        with pytest.raises(ValueError):
            cm.superstable_search(family_k5, 3)

    @pytest.mark.parametrize("period", [1, 2])
    def test_grid_matches_scalar_reference(self, family_k5, period):
        grid = np.linspace(-TWO_PI, TWO_PI, 4096)
        for c in family_k5.critical_set.points:
            g = cm._lift_iterate(family_k5, grid, float(c), period) - float(c)
            assert np.array_equal(
                g, ref.superstable_g(family_k5, grid, float(c), period))


class Test2DConfirmation:
    def test_period2_sink_at_lambda1(self, params_k5, pert, family_k5):
        """Some pullback lambda_1 carries an attracting period-2 orbit."""
        roots = cm.superstable_search(family_k5, 2, a_window=(-TWO_PI, 0.0))
        best = None
        for s in roots:
            lam1 = s.lambdas[0]
            params = params_k5.with_lambda(lam1)
            p = CylinderPoint(s.critical_point, lam1)
            try:
                for _ in range(400):
                    p = return_map(p, params, pert)
            except Exception:
                continue
            q1 = return_map(p, params, pert)
            q2 = return_map(q1, params, pert)
            gap = abs(q2.x - p.x) + abs(q2.y - p.y)
            if gap < 1e-10:
                jac = jac_return(q1, params, pert) @ jac_return(p, params, pert)
                mults = np.abs(np.linalg.eigvals(jac))
                if mults.max() < 0.1:
                    best = (s, mults)
                    break
        assert best is not None, "no pullback realized an attracting 2-cycle"
        _, mults = best
        assert mults.max() < 0.1
