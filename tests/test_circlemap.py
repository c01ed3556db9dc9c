import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from bykovlab import circlemap as cm
from bykovlab import model as md
from bykovlab.model import (TWO_PI, TrigPoly, circle_gap, reference_params,
                            reference_perturbation)


def make_family(k_omega, constant=1.1, terms=((1, 0.0, 1.0),), xi=0.0):
    return cm.CircleMapFamily(xi=xi, k_omega=k_omega,
                              phi2_section=TrigPoly(constant, terms))


def reference_family(k_omega):
    return cm.family_from_model(reference_params(omega=k_omega / 3.0),
                                reference_perturbation())


# Phi2 = 2 + sin x + 0.5 cos 3x at K=2: four critical points, one of them
# exactly on the grid node pi/2
GRID_NODE_FAMILY = make_family(2.0, constant=2.0,
                               terms=((1, 0.0, 1.0), (3, 0.5, 0.0)))


class TestEvaluation:
    def test_constant_section_is_rigid_rotation(self):
        fam = make_family(3.0, constant=2.0, terms=())
        shift = -3.0 * math.log(2.0)
        for x in np.linspace(0.0, TWO_PI, 16, endpoint=False):
            assert fam.val(0.0, float(x)) == pytest.approx(
                (x + shift) % TWO_PI, abs=1e-12)

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
        assert circle_gap(lhs, fam.val(a, x) + s) < 1e-9


    @given(constant=st.floats(min_value=-3.0, max_value=3.0),
           terms=st.lists(st.tuples(st.integers(min_value=1, max_value=4),
                                    st.floats(min_value=-2.0, max_value=2.0),
                                    st.floats(min_value=-2.0, max_value=2.0)),
                          max_size=4),
           xs=st.lists(st.floats(min_value=-20.0, max_value=20.0),
                       min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_jet_matches_per_order_sums(self, constant, terms, xs):
        """One cos and sin per harmonic gives each order's sum bit for bit."""
        p = TrigPoly(constant, tuple(terms))
        for x in (np.array(xs), xs[0]):
            jet = [np.asarray(v).tobytes() for v in p.jet(x, 2)]
            assert jet[:2] == [np.asarray(v).tobytes() for v in p.jet(x)]
            assert jet == [np.asarray(f(x)).tobytes()
                           for f in (p, p.d1, p.d2)]
            assert jet == [np.asarray(f(p, x)).tobytes()
                           for f in (ref.trig_value, ref.trig_d1,
                                     ref.trig_d2)]

    @given(a=st.floats(min_value=-TWO_PI, max_value=TWO_PI),
           xs=st.lists(st.floats(min_value=-20.0, max_value=20.0),
                       min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_step_is_val_and_deriv(self, a, xs):
        fam = make_family(5.0, constant=1.5,
                          terms=((1, 0.0, 1.0), (2, 0.3, 0.0)))
        x = np.array(xs)
        hx, dh = fam.step(a, x)
        assert hx.tobytes() == fam.val(a, x).tobytes()
        assert dh.tobytes() == fam.deriv(x).tobytes()


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

    @pytest.mark.parametrize("family, points, second_derivs", [
        pytest.param(
            reference_family(5.0),
            ("0x1.27ed3cb182bedp+0", "0x1.2ee0241eeafbcp+2"),
            ("0x1.3c4090f5de173p+1", "-0x1.8d84a5191e7d6p+5"), id="k5"),
        pytest.param(
            reference_family(8.0),
            ("0x1.4f406347e1714p+0", "0x1.2e64bf24f45d8p+2"),
            ("0x1.eecfd33d2f87dp+1", "-0x1.3f398acaac884p+6"), id="k8"),
        pytest.param(
            GRID_NODE_FAMILY,
            ("0x1.4cfa664f4a46fp+0", "0x1.921fb54442d18p+0",
             "0x1.4cd5bfbba245dp+2", "0x1.8eeecf8ec146cp+2"),
            ("-0x1.43f87380caef1p+0", "0x1.2aaaaaaaaaaa9p+0",
             "-0x1.0cb2c360ab06dp+4", "0x1.066205c8d62fap+2"),
            id="grid_node_q4"),
    ])
    def test_pinned_critical_sets(self, family, points, second_derivs):
        """Roots and h'' are bit-equal to recorded values: the reference
        pair at K_omega = 5 and 8, and the q = 4 family with a root on a
        grid node."""
        crit = cm.critical_points(family)
        assert crit.points.tolist() == [float.fromhex(h) for h in points]
        assert crit.second_derivs.tolist() == [float.fromhex(h)
                                               for h in second_derivs]

    def test_root_on_grid_node(self):
        # h' is exactly 0.0 on the grid node pi/2 and changes sign there
        fam = GRID_NODE_FAMILY
        node = cm.DEFAULT_GRID // 4
        xs = np.linspace(0.0, TWO_PI, cm.DEFAULT_GRID, endpoint=False)
        d = fam.deriv(xs)
        assert xs[node] == math.pi / 2 and d[node] == 0.0
        assert d[node - 1] * d[node + 1] < 0.0
        crit = cm.critical_points(fam)
        assert crit.q == 4
        assert math.pi / 2 in crit.points.tolist()
        assert all(abs(fam.deriv(float(c))) <= cm.ROOT_TOL
                   for c in crit.points)

    @pytest.mark.parametrize("shape", [(3, 5), (0,), "orbits"])
    @pytest.mark.parametrize("points", [(), (1.0, 4.0),
                                        (0.0, 1.5, 3.2, 6.2)])
    def test_distance_matches_loop_definition(self, points, shape):
        """distance equals the running np.minimum over the critical points,
        bit for bit: inf with none, NaN at a NaN angle, a float for a float
        angle; on a grid, an empty array, and the (n_a, q, horizon) shape
        that critical_orbit_distances passes."""
        crit = cm.CriticalSet(np.array(points, dtype=float),
                              np.ones(len(points)))
        if shape == "orbits":
            shape = (64, crit.q, 50)
        x = np.random.default_rng(1).uniform(-TWO_PI, 2 * TWO_PI, shape)
        if x.size:
            x.flat[7] = np.nan
        want = np.full(x.shape, np.inf)
        for c in crit.points:
            want = np.minimum(want, circle_gap(x, c))
        got = crit.distance(x)
        assert got.shape == x.shape and got.tobytes() == want.tobytes()
        for xv, w in zip(x.ravel()[:16].tolist(), want.ravel().tolist()):
            got = crit.distance(xv)
            assert type(got) is float
            assert got == w or math.isnan(got) and math.isnan(w)

    def test_distance_helper(self, family_k5):
        crit = cm.critical_points(family_k5)
        c = float(crit.points[0])
        assert crit.distance(c) == pytest.approx(0.0, abs=1e-15)
        assert crit.distance(c + 0.01) == pytest.approx(0.01, abs=1e-12)


def _counted(f, calls):
    def g(x):
        calls.append(1)
        return f(x)
    return g


def _same_bits_as_reference(f, lo, hi, flo, steps):
    """The early-exit _bisect and the fixed-count reference agree by uint64
    view; returns how many times _bisect called f."""
    calls = []
    got = md._bisect(_counted(f, calls), lo, hi, flo, steps)
    want = ref.bisect(f, lo, hi, flo, steps)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return len(calls)


class TestBisect:
    @pytest.mark.parametrize("caller, steps", [
        (lambda: cm.critical_points(reference_family(5.0)), 60),
        (lambda: cm.critical_points(GRID_NODE_FAMILY), 60),
        (lambda: cm.superstable_search(reference_family(5.0), 1), 80),
        (lambda: cm.superstable_search(reference_family(5.0), 2), 80),
        (lambda: reference_perturbation().validate(), 40),
    ], ids=["critical_points", "critical_points_q4", "superstable_p1",
            "superstable_p2", "validate"])
    def test_library_brackets_match_fixed_count(self, monkeypatch, caller,
                                                steps):
        """Every bracket the library bisects, `steps` halvings among them
        (a superstable search also finds its critical set), ends on the
        bits that the full count of halvings gives; at 60 and 80 halvings
        the loop stops before the cap."""
        seen, bisect = [], md._bisect

        def spy(*args):
            seen.append(args)
            return bisect(*args)
        monkeypatch.setattr(cm, "_bisect", spy)
        monkeypatch.setattr(md, "_bisect", spy)
        caller()
        monkeypatch.undo()
        counts = [(args[-1], _same_bits_as_reference(*args)) for args in seen]
        assert steps in dict(counts)
        assert all(calls <= cap for cap, calls in counts)
        if steps > 40:  # 40 halvings leave a validate bracket above one ULP
            assert any(calls < cap for cap, calls in counts if cap == steps)

    def test_zero_at_lower_end(self):
        # flo = +-0: every halving moves hi, down to lo
        lo = np.array([1.0, 1.0])
        calls = _same_bits_as_reference(np.log, lo, lo + 1.0,
                                        np.array([0.0, -0.0]), 80)
        assert calls < 80

    def test_signed_zero_midpoints(self):
        # a bracket around 0 of two subnormals: its midpoints are +0.0 and
        # then -0.0, which == cannot tell apart
        tiny = np.nextafter(0.0, 1.0)
        _same_bits_as_reference(lambda x: x, -tiny, tiny, -tiny, 80)

    @pytest.mark.parametrize("steps", [40, 80])
    def test_nan_values(self, steps):
        # a NaN of f never brackets: lo climbs to hi; 40 halvings leave it
        # short of hi, so the loop runs to the cap
        def nan(x):
            return np.full_like(x, np.nan)

        def half_nan(x):
            return np.where(x > 0.5, np.nan, x - 0.25)
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 0.75])
        calls = _same_bits_as_reference(nan, lo, hi, nan(lo), steps)
        assert calls == steps if steps == 40 else calls < steps
        _same_bits_as_reference(half_nan, lo, hi, half_nan(lo), steps)


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
        assert circle_gap(got, a) < 1e-10

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
