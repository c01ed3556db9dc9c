import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from bykovlab import orbits as ob
from bykovlab.model import (CylinderPoint, EscapeError, TWO_PI, named_profile,
                            Perturbation, reference_params,
                            reference_perturbation, return_map, wrap_angle)


class TestIterate:
    def test_lambda_zero_superexponential_collapse(self, ref_params, pert):
        orbit = ob.iterate(ref_params, pert, CylinderPoint(0.3, 0.5), 4)
        ys = orbit.points[:, 1]
        # y_{k+1} = y_k^6 at lambda = 0
        for k in range(len(ys) - 1):
            assert ys[k + 1] == pytest.approx(ys[k] ** 6, rel=1e-12)

    def test_sink_settles(self, params_k5, pert):
        lam = 0.140322  # inside a phase-locked window
        params = params_k5.with_lambda(lam)
        orbit = ob.iterate(params, pert, CylinderPoint(1.0, lam), 200,
                           burn_in=400)
        pts = orbit.points
        assert not orbit.escaped
        assert np.max(np.abs(pts[2:, 1] - pts[:-2, 1])) <= 1e-10

    def test_escape_recorded_at_start(self, ref_params):
        bad = Perturbation(phi1=named_profile("cosine"),
                           phi2=named_profile("constant", value=1.0))
        params = ref_params.with_lambda(0.5)
        orbit = ob.iterate(params, bad, CylinderPoint(0.0, -0.9), 10)
        assert orbit.escaped and orbit.escape_index == 0

    def test_record_invariant(self, ref_params, pert):
        orbit = ob.iterate(ref_params.with_lambda(1e-3), pert,
                           CylinderPoint(0.5, 1e-3), 50)
        assert (orbit.escaped) == (orbit.escape_index is not None)


def rotate(p, *_):
    """A synthetic return map: rotation by 0.7."""
    return CylinderPoint(wrap_angle(p.x + 0.7), p.y)


def synthetic_map(monkeypatch, jac, step=rotate):
    """Make lyapunov step through `step` with the constant Jacobian jac."""
    monkeypatch.setattr(ob, "return_map", step)
    monkeypatch.setattr(ob, "jac_return", lambda *_: jac)


DIAG = np.array([[2.0, 0.0], [0.0, 0.5]])


class TestLyapunov:
    def test_synthetic_diagonal_harness(self, ref_params, pert, monkeypatch):
        synthetic_map(monkeypatch, DIAG)
        est = ob.lyapunov(ref_params, pert, CylinderPoint(0.1, 0.5), 4000,
                          burn_in=0)
        assert est.chi1 == pytest.approx(math.log(2.0), abs=1e-10)
        assert est.chi2 == pytest.approx(-math.log(2.0), abs=1e-10)

    def test_rotated_harness(self, ref_params, pert, monkeypatch):
        # a rotation times a diagonal still yields (ln 2, -ln 2)
        th = 0.3
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        m = rot @ np.diag([2.0, 0.5]) @ rot.T
        synthetic_map(monkeypatch, m)
        est = ob.lyapunov(ref_params, pert, CylinderPoint(0.1, 0.5), 4000,
                          burn_in=0)
        # non-commuting products converge like 1/n, not to machine precision
        assert est.chi1 == pytest.approx(math.log(2.0), abs=1e-3)
        assert est.chi2 == pytest.approx(-math.log(2.0), abs=1e-3)

    @staticmethod
    def _escaping_step(at):
        """Rotation by 0.7 that escapes on its call number `at` (from 0)."""
        calls = []

        def step(p, *_):
            if len(calls) == at:
                raise EscapeError(p)
            calls.append(p)
            return rotate(p)
        return step

    def test_late_escape_counts_only_completed_steps(self, ref_params, pert,
                                                     monkeypatch):
        synthetic_map(monkeypatch, DIAG, self._escaping_step(2605))
        est = ob.lyapunov(ref_params, pert, CylinderPoint(0.1, 0.5), 4000,
                          burn_in=100)
        assert not est.inconclusive
        assert est.escaped_at == 2605
        assert est.n_iter == 2505
        assert est.chi1 == pytest.approx(math.log(2.0), abs=1e-12)
        assert est.chi2 == pytest.approx(-math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("at, n_iter", [(50, 0), (1500, 1400)])
    def test_early_escape_inconclusive(self, ref_params, pert, monkeypatch,
                                       at, n_iter):
        synthetic_map(monkeypatch, DIAG, self._escaping_step(at))
        est = ob.lyapunov(ref_params, pert, CylinderPoint(0.1, 0.5), 4000,
                          burn_in=100)
        assert est.inconclusive and math.isnan(est.chi1)
        assert (est.escaped_at, est.n_iter) == (at, n_iter)

    def test_steps_through_return_map_and_jac_return(self, params_k5, pert,
                                                     monkeypatch):
        # the per-layer benchmark counters read these two module names
        calls = {"step": 0, "jac": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(ob, "return_map", counted("step", ob.return_map))
        monkeypatch.setattr(ob, "jac_return", counted("jac", ob.jac_return))
        ob.lyapunov(params_k5.with_lambda(1e-3), pert,
                    CylinderPoint(0.5, 1e-3), 200, burn_in=10)
        assert calls == {"step": 210, "jac": 200}

    def test_det_consistency_on_reference(self, params_k5, pert):
        params = params_k5.with_lambda(1e-3)
        est = ob.lyapunov(params, pert, CylinderPoint(0.5, 1e-3), 100_000,
                          burn_in=2000)
        assert est.chi1 >= est.chi2
        assert est.det_consistency is not None
        assert est.det_consistency < 1e-2

    def test_saturated_negative_at_lambda_zero(self, ref_params, pert):
        est = ob.lyapunov(ref_params, pert, CylinderPoint(0.5, 0.4), 200,
                          burn_in=0)
        # superexponential y-collapse: second exponent is saturated
        assert est.saturated or est.inconclusive or est.chi2 <= ob.SATURATION


class TestRotationSet:
    def test_invariant_curve_regime_narrow(self, pert):
        params = reference_params(omega=0.05).with_lambda(1e-3)
        seeds = [CylinderPoint(x, 1e-3) for x in (0.5, 2.0, 4.0)]
        lo, hi = ob.rotation_set_2d(params, pert, seeds, 3000)
        assert hi - lo <= 2.0 / 3000 + 1e-9

    def test_lambda_zero_guarded(self, ref_params, pert):
        with pytest.raises(ValueError):
            ob.rotation_set_2d(ref_params, pert,
                               [CylinderPoint(0.5, 0.5)], 100)


class TestClassification:
    BUDGET = ob.Budget(n_iter=15_000, burn_in=2_000)
    KS = (0.1, 0.45, 15.0)  # acceptance 9's lambda = 1e-3 column

    @pytest.fixture(scope="class")
    def column(self, ref_params, pert):
        return ob.classify_batch([1e-3] * 3, self.KS, ref_params, pert,
                                 self.BUDGET)

    def test_invariant_curve_small_twist(self, column):
        assert column[0].label == "InvariantCurve"

    def test_periodic_sink_in_tongue(self, column):
        cell = column[1]
        assert cell.label == "PeriodicSink"
        assert cell.chi1 < 0.0  # period detection agrees with the exponent

    def test_strange_candidate_large_twist(self, column):
        cell = column[2]
        assert cell.label == "StrangeAttractorCandidate"
        assert cell.chi1 > ob.CHI_THRESH

    def test_label_full_includes_period(self, column):
        assert column[1].label_full.startswith("PeriodicSink(")

    def test_column_matches_scalar_reference(self, column, ref_params, pert):
        expect = [ref.classify_cell(1e-3, k, ref_params, pert, self.BUDGET)
                  for k in self.KS]
        _assert_matches_reference(column, expect)


NON_CHAOTIC = ("PeriodicSink", "InvariantCurve", "Escaped")


def _assert_matches_reference(cells, expect):
    """Equal labels and periods; non-chaotic exponents and rotation numbers
    within 1e-9.  A chaotic orbit amplifies the ULP differences between
    numpy's and math's log and power, so its digits are not compared."""
    assert [(c.lam, c.k_omega, c.label, c.period, c.escaped) for c in cells] \
        == [(c.lam, c.k_omega, c.label, c.period, c.escaped) for c in expect]
    for got, want in zip(cells, expect):
        if want.label not in NON_CHAOTIC:
            continue
        for field in ("chi1", "chi2", "rho_min", "rho_max"):
            a, b = getattr(got, field), getattr(want, field)
            assert (math.isnan(a) and math.isnan(b)) \
                or abs(a - b) <= 1e-9 * max(1.0, abs(b)), (want, field, a)


class TestDetectPeriod:
    """The prefiltered period search returns what the full pass over every
    candidate returns (tests/scalar_reference.detect_period)."""
    # scan-grid budget (n_iter 2000, burn_in 500) tails at the reference
    # model: sinks of period 28, 2, 3, 1 and 4, and orbits with no period
    CELLS = {(1e-4, 0.45): 28, (1e-3, 0.45): 2, (1e-2, 0.45): 3,
             (1e-3, 5.0): 1, (1e-4, 1.0): 4, (1e-4, 8.0): None,
             (1e-2, 15.0): None, (1e-3, 0.1): None}

    @pytest.fixture(scope="class")
    def tails(self, params_k5, pert):
        return {(lam, k): ob.iterate(params_k5.with_k_omega(k).with_lambda(lam),
                                     pert, CylinderPoint(0.5, lam), 2000,
                                     500).points[-ob.PERIOD_TAIL:]
                for lam, k in self.CELLS}

    def test_orbit_tails(self, tails):
        for cell, period in self.CELLS.items():
            tail = tails[cell]
            yscale = float(np.max(tail[:, 1]))
            args = (tail, ob.RECURRENCE_TOL, ob.PERIOD_CAP, yscale)
            assert ob._detect_period(*args) == ref.detect_period(*args) \
                == period, cell

    @given(cell=st.sampled_from(sorted(CELLS)),
           tol=st.sampled_from([1e-12, ob.RECURRENCE_TOL, 1e-5, 1e-2, 1.0]),
           cap=st.sampled_from([1, 2, 3, 27, 28, ob.PERIOD_CAP, 256, 257]),
           start=st.integers(0, 500))
    @settings(max_examples=200, deadline=None)
    def test_orbit_tails_any_tolerance(self, tails, cell, tol, cap, start):
        tail = tails[cell][start:]
        yscale = float(np.max(tail[:, 1]))
        args = (tail, tol, cap, yscale)
        assert ob._detect_period(*args) == ref.detect_period(*args)

    @given(period=st.sampled_from([1, 2, 3, 28]) | st.integers(1, 80),
           noise=st.sampled_from([0.0, 1e-10, 5e-9, 2e-8, 1e-3]),
           late=st.integers(0, 511), m=st.integers(1, 600),
           cap=st.sampled_from([3, 28, ob.PERIOD_CAP]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_synthetic_cycles(self, period, noise, late, m, cap, seed):
        """A random cycle, with noise from point `late` on: past the
        prefilter's pairs, only the full check can reject the period."""
        rng = np.random.default_rng(seed)
        cycle = rng.uniform((0.0, 1e-3), (TWO_PI, 1.0), (period, 2))
        tail = cycle[np.arange(m) % period]
        tail[late:] += noise * rng.standard_normal(tail[late:].shape)
        args = (tail, ob.RECURRENCE_TOL, cap, float(np.max(tail[:, 1])))
        assert ob._detect_period(*args) == ref.detect_period(*args)


class TestClassifyBatch:
    # the benchmark's scan grid: every regime, and Escaped cells
    LAMS = (1e-4, 1e-3, 1e-2, 0.3)
    KS = (0.1, 0.45, 8.0, 15.0)
    BUDGET = ob.Budget(n_iter=2000, burn_in=500)

    def grid(self):
        return ([lam for lam in self.LAMS for _ in self.KS],
                [k for _ in self.LAMS for k in self.KS])

    def test_scan_grid_matches_scalar_reference(self, params_k5, pert):
        lams, ks = self.grid()
        cells = ob.classify_batch(lams, ks, params_k5, pert, self.BUDGET)
        expect = [ref.classify_cell(lam, k, params_k5, pert, self.BUDGET)
                  for lam, k in zip(lams, ks)]
        assert {c.label for c in expect} == set(ob.REGIME_LABELS) - {
            "TransientChaos"}
        _assert_matches_reference(cells, expect)

    def test_cell_alone_equals_cell_in_batch(self, params_k5, pert):
        budget = ob.Budget(n_iter=300, burn_in=50)
        lams, ks = self.grid()
        cells = ob.classify_batch(lams, ks, params_k5, pert, budget)
        for lam, k, cell in zip(lams, ks, cells):
            alone = ob.classify_cell(lam, k, params_k5, pert, budget)
            assert repr(alone) == repr(cell)  # repr: nan fields compare equal

    @pytest.mark.parametrize("n_iter", [2, 3, 4, 5])
    def test_escape_after_the_recorded_orbit(self, params_k5, pert, n_iter):
        """These orbits escape within 6 steps: in the Lyapunov run (conclusive
        or not) and in some rotation seeds' lift steps, as the scalar
        reference sees it."""
        budget = ob.Budget(n_iter=n_iter, burn_in=0)
        ks = (0.1, 0.45, 1.0)
        cells = ob.classify_batch([0.3] * 3, ks, params_k5, pert, budget)
        expect = [ref.classify_cell(0.3, k, params_k5, pert, budget)
                  for k in ks]
        assert [c.label for c in expect].count("Escaped") < 3
        for got, want in zip(cells, expect):
            for field in ("label", "period", "escaped", "chi1", "chi2",
                          "rho_min", "rho_max"):
                a, b = getattr(got, field), getattr(want, field)
                assert a == b or (a != a and b != b) \
                    or abs(a - b) <= 1e-9 * max(1.0, abs(b)), (want, field, a)

    def test_rejects_bad_input(self, ref_params, pert):
        with pytest.raises(ValueError):
            ob.classify_batch([1e-3], [1.0], ref_params, pert,
                              ob.Budget(n_iter=0))
        with pytest.raises(ValueError):
            ob.classify_batch([1e-3, 1e-2], [1.0], ref_params, pert)
        assert ob.classify_batch([], [], ref_params, pert) == []


class TestScan:
    def test_shapes_and_determinism(self, ref_params, pert):
        budget = ob.Budget(n_iter=4000, burn_in=500)
        r1 = ob.scan([1e-4, 1e-3], [0.1, 8.0], ref_params, pert, budget)
        r2 = ob.scan([1e-3, 1e-4], [8.0, 0.1], ref_params, pert, budget)
        assert ob.scan_rows(r1) == ob.scan_rows(r2)
        assert len(r1.cells) == 2 and len(r1.cells[0]) == 2

    def test_boundary_extraction(self, ref_params, pert):
        budget = ob.Budget(n_iter=4000, burn_in=500)
        r = ob.scan([1e-4, 1e-3], [0.1, 8.0], ref_params, pert, budget)
        assert 0.1 in r.t2_hat      # invariant-curve column
        assert 8.0 in r.t1_hat      # chaotic column
        assert r.ordered


@given(st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
       st.floats(min_value=-0.5, max_value=1.0),
       st.floats(min_value=1e-5, max_value=0.5),
       st.floats(min_value=0.1, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_rotation_lift_follows_return_map(x, y, lam, k_omega):
    """One lift step escapes exactly when return_map does, else lands on it."""
    params = reference_params(lam=lam).with_k_omega(k_omega)
    pert = reference_perturbation()
    p = CylinderPoint(x, y)
    try:
        q = return_map(p, params, pert)
    except EscapeError:
        with pytest.raises(EscapeError):
            ob.rotation_set_2d(params, pert, [p], 1)
        return
    rho_min, rho_max = ob.rotation_set_2d(params, pert, [p], 1)
    assert rho_min == rho_max
    d = abs(math.fmod(p.x + TWO_PI * rho_min - q.x, TWO_PI))
    assert min(d, TWO_PI - d) <= 1e-12


@given(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=4,
                max_size=4))
@settings(max_examples=300, deadline=None)
def test_gram_schmidt_matches_numpy_qr(entries):
    """The 2x2 QR of lyapunov agrees with Householder QR from numpy."""
    m = np.array(entries).reshape(2, 2)
    scale = float(np.max(np.abs(m)))
    assume(abs(np.linalg.det(m)) >= 0.1 * scale * scale > 0.0)
    _, logdet = np.linalg.slogdet(m)
    q11, q12, q21, q22, d1, d2 = ob._gram_schmidt_2x2(*entries, logdet)
    q, r = np.linalg.qr(m)
    sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    assert d1 == pytest.approx(math.log(abs(r[0, 0])), abs=1e-12)
    assert d2 == pytest.approx(math.log(abs(r[1, 1])), abs=1e-12)
    assert np.allclose([[q11, q12], [q21, q22]], q * sign, rtol=0.0,
                       atol=1e-12)


@given(st.lists(st.lists(st.one_of(st.just(0.0),
                                   st.floats(min_value=-10.0, max_value=10.0)),
                         min_size=4, max_size=4),
                min_size=1, max_size=6),
       st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_gram_schmidt_batch_matches_scalar(products, logdet):
    """classify_batch's array QR equals lyapunov's 2x2 QR per orbit, vanished
    first columns (Q = I, ln r11 = -inf) included."""
    got = ob._gram_schmidt_batch(*np.array(products).T, np.full(len(products),
                                                               logdet))
    for i, entries in enumerate(products):
        want = ob._gram_schmidt_2x2(*entries, logdet)
        for g, w in zip((v[i] for v in got), want):
            assert g == w or abs(g - w) <= 1e-15 * max(1.0, abs(w))
