import math

import numpy as np
import pytest

import scalar_reference as ref
from bykovlab import circlemap as cm
from bykovlab import orbits as ob
from bykovlab.model import CylinderPoint, TWO_PI, circle_gap


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
            assert circle_gap(x, s.critical_point) < 1e-9

    def test_at_least_one_root_per_window(self, family_k5):
        for window in ((0.0, TWO_PI), (-TWO_PI, 0.0)):
            assert cm.superstable_search(family_k5, 2, a_window=window)

    def test_fixed_point_period_one(self, family_k5):
        roots = cm.superstable_search(family_k5, 1, a_window=(0.0, TWO_PI))
        for s in roots:
            x = family_k5.val(s.a_star, s.critical_point)
            assert circle_gap(x, s.critical_point) < 1e-9

    def test_pullback_sequence_form(self, family_k5):
        s = cm.superstable_search(family_k5, 2, a_window=(-TWO_PI, 0.0))[0]
        for n, lam in enumerate(s.lambdas, start=1):
            assert lam == cm.lambda_sequences(family_k5.k_omega, n,
                                              s.a_star)[1]
        assert all(b < a for a, b in zip(s.lambdas, s.lambdas[1:]))

    def test_needs_critical_points(self, family_k03):
        with pytest.raises(cm.EmptyCriticalSetError):
            cm.superstable_search(family_k03, 2)

    def test_unsupported_period(self, family_k5):
        with pytest.raises(ValueError):
            cm.superstable_search(family_k5, 3)

    def test_root_on_grid_node(self, family_k5):
        # a float a where g(a) = lift(c) - c - 2*pi*m is exactly 0.0, put on
        # node 2047 of a window whose step is a power of two
        s = cm.superstable_search(family_k5, 1, a_window=(0.0, TWO_PI))[0]
        c, m = s.critical_point, s.winding
        near = s.a_star + np.arange(-200, 201) * np.spacing(s.a_star)
        g = cm._lift_iterate(family_k5, near, c, 1) - c - TWO_PI * m
        a_node = float(near[np.nonzero(g == 0.0)[0][0]])
        step = 2.0 ** -12
        window = (a_node - 2047 * step, a_node + 2048 * step)
        grid = np.linspace(*window, cm.SUPERSTABLE_GRID)
        f = cm._lift_iterate(family_k5, grid, c, 1) - c - TWO_PI * m
        assert grid[2047] == a_node and f[2047] == 0.0
        # the product of neighbouring values brackets nothing here
        assert not np.any(f[:-1] * f[1:] < 0.0)
        roots = cm.superstable_search(family_k5, 1, a_window=window)
        assert [(r.critical_point, r.winding) for r in roots] == [(c, m)]
        assert abs(roots[0].a_star - a_node) <= 1e-12
        assert roots[0].residual <= cm.SUPERSTABLE_TOL

    @pytest.mark.parametrize("period", [1, 2])
    def test_root_on_window_end(self, family_k5, period):
        # a float a0 where g(a) = lift^p(c) - c - 2*pi*m is exactly 0.0,
        # found by nextafter steps around a root where g rises (period 1) or
        # falls (a period-2 root); on the first node of (a0, a0 + 0.3) or
        # the last of (a0 - 0.3, a0), f leaves zero into the window
        # without a sign flip
        for s in cm.superstable_search(family_k5, period,
                                       a_window=(0.0, TWO_PI)):
            c, m = s.critical_point, s.winding
            up, down = [s.a_star], [s.a_star]
            for _ in range(200):
                up.append(np.nextafter(up[-1], math.inf))
                down.append(np.nextafter(down[-1], -math.inf))
            near = np.array(down[::-1] + up[1:])
            g = cm._lift_iterate(family_k5, near, c, period) - c - TWO_PI * m
            if np.any(g == 0.0) and (g[-1] > g[0]) == (period == 1):
                break
        else:
            pytest.fail("no root with an exact float zero nearby")
        a0 = float(near[np.nonzero(g == 0.0)[0][0]])
        for window in ((a0, a0 + 0.3), (a0 - 0.3, a0)):
            roots = [r for r in cm.superstable_search(family_k5, period,
                                                      a_window=window)
                     if (r.critical_point, r.winding) == (c, m)
                     and abs(r.a_star - a0) <= 1e-12]
            assert len(roots) == 1, window
            assert roots[0].residual <= cm.SUPERSTABLE_TOL

    @pytest.mark.parametrize("period", [1, 2])
    def test_grid_matches_scalar_reference(self, family_k5, period):
        grid = np.linspace(-TWO_PI, TWO_PI, 4096)
        for c in family_k5.critical_set.points:
            g = cm._lift_iterate(family_k5, grid, float(c), period) - float(c)
            assert np.array_equal(
                g, ref.superstable_g(family_k5, grid, float(c), period))


def _confirmed_sinks(params, pert, roots, n):
    """Roots whose pullback lambda_(a*,n) carries an attracting 2-cycle."""
    count = 0
    for s in roots:
        lam = s.lambdas[n - 1]
        check = ob.confirm_cycle(params.with_lambda(lam), pert,
                                 CylinderPoint(s.critical_point, lam), 2)
        count += check.gap < 1e-10 and check.multipliers[-1] < 0.1
    return count


class Test2DConfirmation:
    def test_period2_sinks_grow_along_pullbacks(self, params_k5, pert,
                                                family_k5):
        """More pullbacks carry an attracting 2-cycle as lambda_(a*,n) -> 0."""
        roots = cm.superstable_search(family_k5, 2, a_window=(-TWO_PI, 0.0))
        at2 = _confirmed_sinks(params_k5, pert, roots, 2)
        at5 = _confirmed_sinks(params_k5, pert, roots, 5)
        assert 0 < at2 < at5, (at2, at5)

    def test_escape_is_reported(self, params_k5, pert):
        check = ob.confirm_cycle(params_k5.with_lambda(1e-3), pert,
                                 CylinderPoint(0.5, -0.9), 2)
        assert check.escaped
        assert math.isnan(check.gap)
        assert all(math.isnan(m) for m in check.multipliers)
