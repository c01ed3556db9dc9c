import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from bykovlab import circlemap as cm
from bykovlab.model import TWO_PI, TrigPoly, reference_params, wrap_angle


def make_family(k_omega, constant=1.1, terms=((1, 0.0, 1.0),), xi=0.0):
    return cm.CircleMapFamily(xi=xi, k_omega=k_omega,
                              phi2_section=TrigPoly(constant, terms))


class TestEvaluation:
    def test_constant_section_is_rigid_rotation(self):
        fam = make_family(3.0, constant=2.0, terms=())
        shift = -3.0 * math.log(2.0)
        for x in np.linspace(0.0, TWO_PI, 16, endpoint=False):
            assert fam.val(0.0, float(x)) == pytest.approx(
                wrap_angle(x + shift), abs=1e-12)

    def test_hand_value(self):
        fam = make_family(3.0)
        # h(0) = -3 ln 1.1 mod 2pi
        assert fam.val(0.0, 0.0) == pytest.approx(
            TWO_PI - 3.0 * math.log(1.1), abs=1e-12)

    def test_lift_consistent_with_circle_value(self):
        fam = make_family(5.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = float(rng.uniform(0, TWO_PI))
            x = float(rng.uniform(0, TWO_PI))
            diff = fam.lift(a, x) - fam.val(a, x)
            assert abs(diff / TWO_PI - round(diff / TWO_PI)) < 1e-12

    @given(st.floats(min_value=0.0, max_value=TWO_PI),
           st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=50)
    def test_degree_one_lift(self, x, a):
        fam = make_family(5.0)
        assert fam.lift(a, x + TWO_PI) == pytest.approx(
            fam.lift(a, x) + TWO_PI, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=TWO_PI),
           st.floats(min_value=0.0, max_value=TWO_PI),
           st.floats(min_value=0.0, max_value=TWO_PI))
    @settings(max_examples=50)
    def test_a_equivariance(self, x, a, s):
        fam = make_family(5.0)
        lhs = fam.val(a + s, x)
        rhs = wrap_angle(fam.val(a, x) + s)
        assert min(abs(lhs - rhs), TWO_PI - abs(lhs - rhs)) < 1e-9


class TestOrbit:
    def test_matches_repeated_val(self, family_k5):
        orbit = family_k5.orbit(0.7, 1.3, 5)
        x = 1.3
        assert orbit[0] == x
        for k in range(1, 6):
            x = family_k5.val(0.7, x)
            assert orbit[k] == x

    def test_broadcasts_a_against_x0(self, family_k5):
        a = np.array([[0.0], [1.0], [2.0]])
        x0 = np.array([0.5, 3.0])
        orbit = family_k5.orbit(a, x0, 4)
        assert orbit.shape == (3, 2, 5)
        for i in range(3):
            for j in range(2):
                assert np.array_equal(
                    orbit[i, j], family_k5.orbit(float(a[i, 0]), x0[j], 4))


class TestCriticalSet:
    def test_empty_at_small_twist(self, family_k03):
        assert cm.critical_points(family_k03).q == 0

    def test_two_points_at_k5(self, family_k5):
        crit = cm.critical_points(family_k5)
        assert crit.q == 2
        assert np.all(np.abs(crit.second_derivs) > 1e-8)
        for c in crit.points:
            assert abs(family_k5.deriv(float(c))) <= 1e-12

    def test_matches_brute_force_grid(self, family_k5):
        xs = np.linspace(0.0, TWO_PI, 1 << 16, endpoint=False)
        d = family_k5.deriv(xs)
        brute = np.count_nonzero(d * np.roll(d, -1) < 0.0)
        assert brute == cm.critical_points(family_k5).q

    def test_constant_section_empty(self):
        fam = make_family(5.0, constant=2.0, terms=())
        assert cm.critical_points(fam).q == 0

    def test_independent_of_a(self, family_k5):
        # the family only enters through h', which has no a-dependence
        c1 = cm.critical_points(family_k5).points
        assert np.allclose(c1, sorted(c1))

    @pytest.mark.parametrize("k_omega, points, second_derivs", [
        (5.0, ("0x1.27ed3cb182bedp+0", "0x1.2ee0241eeafbcp+2"),
         ("0x1.3c4090f5de173p+1", "-0x1.8d84a5191e7d6p+5")),
        (8.0, ("0x1.4f406347e1714p+0", "0x1.2e64bf24f45d8p+2"),
         ("0x1.eecfd33d2f87dp+1", "-0x1.3f398acaac884p+6")),
    ])
    def test_pinned_critical_sets(self, pert, k_omega, points, second_derivs):
        """Roots and h'' are bit-equal to recorded values."""
        fam = cm.family_from_model(reference_params(omega=k_omega / 3.0), pert)
        crit = cm.critical_points(fam)
        assert crit.points.tolist() == [float.fromhex(h) for h in points]
        assert crit.second_derivs.tolist() == [float.fromhex(h)
                                               for h in second_derivs]

    def test_distance_helper(self, family_k5):
        crit = cm.critical_points(family_k5)
        c = float(crit.points[0])
        assert crit.distance(c) == pytest.approx(0.0, abs=1e-15)
        assert crit.distance(c + 0.01) == pytest.approx(0.01, abs=1e-12)


class TestRotationInterval:
    def test_rigid_rotation_collapses(self):
        fam = make_family(3.0, constant=2.0, terms=())
        s = -3.0 * math.log(2.0)  # signed lift displacement per iterate
        ri = cm.rotation_interval(fam, 0.0, n_iter=2000)
        assert ri.degenerate
        assert ri.rho_min == pytest.approx(s / TWO_PI, abs=1e-3)

    def test_diffeo_regime_single_number(self, family_k03):
        ri = cm.rotation_interval(family_k03, 1.0, n_iter=3000)
        assert ri.width <= 2.0 / 3000 + 1e-12

    def test_noninvertible_regime_interval(self, family_k5):
        # some a in the expanding regime carries a genuine interval
        widths = [cm.rotation_interval(family_k5, a, n_iter=1500).width
                  for a in (0.0, 1.0, 2.0)]
        assert max(widths) > 0.05

    def test_min_iterates_enforced(self, family_k5):
        with pytest.raises(ValueError):
            cm.rotation_interval(family_k5, 0.0, n_iter=10)

    @pytest.mark.parametrize("k, a, n_seeds", [(5.0, 0.0, 16), (5.0, 1.3, 3),
                                               (5.0, 4.0, 7), (0.3, 1.0, 16)])
    def test_lockstep_matches_scalar_reference(self, pert, k, a, n_seeds):
        fam = cm.family_from_model(reference_params(omega=k / 3.0), pert)
        ri = cm.rotation_interval(fam, a, n_iter=1000, n_seeds=n_seeds)
        rhos = ref.rotation_rhos(fam, a, 1000, n_seeds)
        assert (ri.rho_min, ri.rho_max) == (min(rhos), max(rhos))


class TestPartition:
    def test_needs_critical_points(self, family_k03):
        with pytest.raises(cm.EmptyCriticalSetError):
            cm.monotonicity_partition(family_k03)

    def test_partition_covers_circle(self, family_k5):
        part = cm.monotonicity_partition(family_k5)
        assert part.r == 2
        assert float(np.sum(part.gaps)) == pytest.approx(TWO_PI, abs=1e-12)

    def test_surjective_branches_all_ones(self, family_k5):
        part = cm.monotonicity_partition(family_k5)
        tm = cm.transition_matrix(family_k5, 0.0, part)
        # at K=5 both branch images have variation > 2pi
        assert tm.q.tolist() == [[1, 1], [1, 1]]
        assert tm.primitive_n == 1


    @pytest.mark.parametrize("k_omega, terms", [
        (2.0, ((1, 0.0, 1.0),)), (5.0, ((1, 0.0, 1.0),)),
        (8.0, ((1, 0.0, 1.0),)), (3.0, ((1, 0.0, 1.0), (3, 0.5, 0.0)))])
    def test_matrix_matches_scalar_reference(self, k_omega, terms):
        fam = make_family(k_omega, constant=2.0, terms=terms)
        part = cm.monotonicity_partition(fam)
        for a in np.linspace(0.0, TWO_PI, 32, endpoint=False):
            tm = cm.transition_matrix(fam, float(a), part)
            assert np.array_equal(tm.q, ref.transition_q(fam, float(a), part))


class TestLambdaSequences:
    def test_analytic_value(self):
        lam_n, _ = cm.lambda_sequences(3.0, 1, 0.0)
        assert lam_n == pytest.approx(math.exp(-TWO_PI / 3.0), rel=1e-15)

    @given(st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=100)
    def test_twist_identity(self, a, n):
        k = 5.0
        _, lam_an = cm.lambda_sequences(k, n, a)
        got = cm.twist_of_lambda(k, lam_an)
        d = abs(wrap_angle(got - a))
        assert min(d, TWO_PI - d) < 1e-10

    def test_monotone_in_n(self):
        vals = [cm.lambda_sequences(5.0, n, 1.0)[1] for n in range(1, 10)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            cm.lambda_sequences(-1.0, 1, 0.0)
        with pytest.raises(ValueError):
            cm.lambda_sequences(3.0, 0, 0.0)


class TestProp92:
    def test_branch_variation_grows_with_k(self, pert):
        # the branch image variation scales with K_omega
        variations = []
        for k in (5.0, 8.0, 15.0):
            fam = cm.family_from_model(
                reference_params(omega=k / 3.0), pert)
            part = cm.monotonicity_partition(fam)
            var = [abs(fam.lift(0.0, float(part.starts[i] + part.gaps[i]))
                       - fam.lift(0.0, float(part.starts[i])))
                   for i in range(part.r)]
            variations.append(min(var))
        assert variations[0] < variations[1] < variations[2]
