import contextlib
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from bykovlab import orbits as ob
from bykovlab.config import load_config
from bykovlab.model import (CylinderPoint, EscapeError, TWO_PI, circle_gap,
                            named_profile, Perturbation, reference_params,
                            reference_perturbation, return_map)


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
    return CylinderPoint((p.x + 0.7) % TWO_PI, p.y)


def synthetic_map(monkeypatch, jac, step=rotate):
    """Make lyapunov step through `step` with the constant Jacobian jac,
    handed out as jac_return hands out its entries: nested float tuples."""
    jac = tuple(map(tuple, np.asarray(jac).tolist()))
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


# (lam, K_omega, x0, y0, n, burn_in) of a run of each outcome the property
# below must cover; it draws them as explicit examples
LYAPUNOV_OUTCOMES = {
    "escaped": (0.37, 3.7, 5.19, 0.169, 100, 0),  # at step 79 of 100
    "inconclusive": (1e-3, 5.0, 1.0, -0.05, 100, 5),  # at step 0
    "saturated": (1e-5, 5.0, 0.5, 1e-5, 200, 10),  # chi2 below SATURATION
}


def _outcome(est: ob.LyapunovEstimate) -> str:
    if est.inconclusive:
        return "inconclusive"
    if est.escaped_at is not None:
        return "escaped"
    return "saturated" if est.saturated else "measured"


@pytest.mark.parametrize("outcome", sorted(LYAPUNOV_OUTCOMES))
def test_lyapunov_outcome_examples(outcome, pert):
    lam, k_omega, x0, y0, n, burn_in = LYAPUNOV_OUTCOMES[outcome]
    est = ob.lyapunov(reference_params(lam=lam).with_k_omega(k_omega), pert,
                      CylinderPoint(x0, y0), n, burn_in)
    assert _outcome(est) == outcome


def _with_outcome_examples(test):
    for lam, k_omega, x0, y0, n, burn_in in LYAPUNOV_OUTCOMES.values():
        test = example(x0=x0, y0=y0, lam=lam, k_omega=k_omega, n=n,
                       burn_in=burn_in, pert=reference_perturbation())(test)
    return test


# lam log-uniform in [1e-6, 0.4], and 0 for the lowest draws: lam = 0
# collapses the height to 0 within a few steps and then escapes, late
# enough for a short run to stay conclusive; a small lam saturates chi2,
# and a negative y0 escapes at once
@_with_outcome_examples
@given(x0=st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
       y0=st.floats(min_value=-0.05, max_value=1.0),
       lam=st.floats(min_value=math.log(1e-7), max_value=math.log(0.4)).map(
           lambda t: math.exp(t) if t >= math.log(1e-6) else 0.0),
       k_omega=st.floats(min_value=0.3, max_value=12.0),
       n=st.one_of(st.integers(0, 12), st.integers(0, 400)),
       burn_in=st.one_of(st.integers(0, 3), st.integers(0, 40)),
       pert=st.sampled_from([reference_perturbation(), ref.SLOPED,
                             ref.TANGLED]))
@settings(max_examples=300, deadline=None)
def test_lyapunov_matches_interpretive_reference(x0, y0, lam, k_omega, n,
                                                 burn_in, pert):
    """lyapunov on the compiled float kernel equals one loop over the
    interpretive image_step/return_step (tests/scalar_reference.lyapunov,
    contract: bits): every field ==, NaN where NaN."""
    params = reference_params(lam=lam).with_k_omega(k_omega)
    p0 = CylinderPoint(x0, y0)
    got = ob.lyapunov(params, pert, p0, n, burn_in)
    want = ref.lyapunov(params, pert, p0, n, burn_in)
    event(_outcome(got))
    for field in dataclasses.fields(ob.LyapunovEstimate):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert type(g) is type(w)
        nan = [isinstance(v, float) and math.isnan(v) for v in (g, w)]
        assert nan[0] == nan[1]
        if not nan[0]:
            assert g == w


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
    """Equal labels and periods, and a NaN thickness on the same cells (the
    cells that do not reach the curve test); non-chaotic exponents,
    rotation numbers and thickness within 1e-9.  A chaotic orbit amplifies
    the ULP differences between numpy's and math's log and power, so its
    digits are not compared."""
    assert [(c.lam, c.k_omega, c.label, c.period, c.escaped,
             math.isnan(c.thickness)) for c in cells] \
        == [(c.lam, c.k_omega, c.label, c.period, c.escaped,
             math.isnan(c.thickness)) for c in expect]
    for got, want in zip(cells, expect):
        if want.label not in NON_CHAOTIC:
            continue
        for field in ("chi1", "chi2", "thickness", "rho_min", "rho_max"):
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
                          "thickness", "rho_min", "rho_max"):
                a, b = getattr(got, field), getattr(want, field)
                assert a == b or (a != a and b != b) \
                    or abs(a - b) <= 1e-9 * max(1.0, abs(b)), (want, field, a)

    @pytest.mark.parametrize("escaping, budget, calls", [
        (False, ob.Budget(2000, 500), 4),
        # three cells are Escaped and one has an inconclusive (NaN) chi1
        (True, ob.Budget(40, 0), 0)])
    def test_thickness_fitted_only_at_the_curve_test(
            self, params_k5, pert, monkeypatch, escaping, budget, calls):
        """The fit runs on the scan grid's 4 InvariantCurve cells, its only
        cells with no period and |chi1| <= CHI_THRESH, and never on a NaN
        chi1."""
        fitted = []

        def counted(tail, lam, delta):
            fitted.append(lam)
            return thickness(tail, lam, delta)

        thickness = ob._orbit_thickness
        monkeypatch.setattr(ob, "_orbit_thickness", counted)
        lams, ks = (zip(*TestLockstepBits.ESCAPING) if escaping
                    else self.grid())
        cells = ob.classify_batch(lams, ks, params_k5, pert, budget)
        assert len(fitted) == calls
        assert sum(not math.isnan(c.thickness) for c in cells) == calls
        for c in cells:
            if not math.isnan(c.thickness):
                assert c.period is None and abs(c.chi1) <= ob.CHI_THRESH

    def test_rejects_bad_input(self, ref_params, pert):
        with pytest.raises(ValueError):
            ob.classify_batch([1e-3], [1.0], ref_params, pert,
                              ob.Budget(n_iter=0))
        with pytest.raises(ValueError):
            ob.classify_batch([1e-3, 1e-2], [1.0], ref_params, pert)
        assert ob.classify_batch([], [], ref_params, pert) == []


class TestOrbitThickness:
    """_orbit_thickness is the sup-norm residual of a degree-8 trig fit to
    v = y^(1/delta) / lam, here on synthetic tails with heights
    y = (lam * v(x))^delta, and no thickness when the fit interpolates."""
    LAM = 1e-3

    @staticmethod
    def tail(x, v, lam, delta):
        """Orbit points (x, y) with heights y = (lam * v(x))^delta."""
        return np.column_stack((x, (lam * v) ** delta))

    @staticmethod
    def degree_8(x, seed=0):
        """A random trig polynomial of degree 8, between 1 and 3."""
        coef = np.random.default_rng(seed).uniform(-1.0, 1.0, (8, 2)) / 16.0
        return 2.0 + sum(a * np.cos(k * x) + b * np.sin(k * x)
                         for k, (a, b) in enumerate(coef, start=1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_degree_8_curve_is_thin(self, params_k5, seed):
        x = np.random.default_rng(seed + 10).uniform(0.0, TWO_PI, 200)
        tail = self.tail(x, self.degree_8(x, seed), self.LAM, params_k5.delta)
        assert ob._orbit_thickness(tail, self.LAM, params_k5.delta) < 1e-12

    @pytest.mark.parametrize("eps", [1e-4, 5e-3, 0.1])
    def test_ninth_harmonic_is_the_thickness(self, params_k5, eps):
        """On 36 uniform angles cos 9x is orthogonal to every term of the
        fit and reaches +-1, so the residual sup-norm is eps."""
        x = np.arange(36) * (TWO_PI / 36)
        v = self.degree_8(x) + eps * np.cos(9 * x)
        thick = ob._orbit_thickness(self.tail(x, v, self.LAM, params_k5.delta),
                                    self.LAM, params_k5.delta)
        assert abs(thick - eps) <= 1e-9 * eps

    def test_no_thickness_from_an_interpolating_fit(self, params_k5):
        """17 points are interpolated by the 17 coefficients; fewer than
        34, twice as many, give no thickness, and 34 give one."""
        delta = params_k5.delta
        for m, finite in ((1, False), (17, False), (33, False), (34, True)):
            x = np.arange(m) * (TWO_PI / m)
            v = self.degree_8(x) + 0.1 * np.cos(9 * x)
            thick = ob._orbit_thickness(self.tail(x, v, self.LAM, delta),
                                        self.LAM, delta)
            assert math.isfinite(thick) is finite, m

    def test_short_orbits_are_no_invariant_curves(self, params_k5, pert):
        """At n_iter 33 and 34 the second half holds 17 and 18 points,
        which gave 7 and 4 InvariantCurve cells here (none at n_iter
        2000); at n_iter 66 it holds 34, and the curve test runs."""
        k = 0.4
        lams = [math.exp(-(a + TWO_PI) / k)  # lambda_(a,1)
                for a in np.linspace(0.0, TWO_PI, 64, endpoint=False)]

        def cells(n_iter):
            return ob.classify_batch(lams, [k] * 64, params_k5, pert,
                                     ob.Budget(n_iter=n_iter, burn_in=200))

        for n_iter in (33, 34):
            got = cells(n_iter)
            assert all(math.isnan(c.thickness) for c in got), n_iter
            assert "InvariantCurve" not in {c.label for c in got}, n_iter
        assert any(math.isfinite(c.thickness) for c in cells(66))


@contextlib.contextmanager
def _block_points(points: int):
    """classify_batch with blocks of about `points` orbit points."""
    saved, ob.BLOCK_POINTS = ob.BLOCK_POINTS, points
    try:
        yield
    finally:
        ob.BLOCK_POINTS = saved


class TestLockstepBits:
    """classify_batch equals the per-step lockstep over the float rows
    summed on arrays (tests/scalar_reference.classify_batch, contract:
    bits) with repr ==, whatever the block size."""
    GRID = TestClassifyBatch.LAMS, TestClassifyBatch.KS
    # from (0.5, lam): these orbits escape at steps 8, 9, 25 and 51
    ESCAPING = ((0.29, 0.15), (0.29, 0.1), (0.28, 0.1), (0.28, 0.15))

    @staticmethod
    def check(lams, ks, base, pert, budget):
        """Equal cells, and equal runs: the recorded points, the whole
        LyapunovEstimate and the rotation numbers.  Neither lockstep keeps
        a log-determinant sum, so det_consistency is None on both."""
        got = ob.classify_batch(lams, ks, base, pert, budget)
        assert repr(got) == repr(ref.classify_batch(lams, ks, base, pert,
                                                    budget))
        params = [base.with_k_omega(k).with_lambda(lam)
                  for lam, k in zip(lams, ks)]
        for g, w in zip(ob._lockstep(params, pert, budget),
                        ref.lockstep(params, pert, budget)):
            assert (g is None) == (w is None)
            if w is not None:  # the points bit for bit, signed zeros too
                assert np.array_equal(g[0].view(np.uint64),
                                      w[0].view(np.uint64))
                assert repr(g[1:]) == repr(w[1:])
                assert g[1].det_consistency is None

    def grid(self):
        lams, ks = self.GRID
        return [lam for lam in lams for _ in ks], [k for _ in lams for k in ks]

    def test_scan_grid(self, params_k5, pert):
        self.check(*self.grid(), params_k5, pert, ob.Budget(2000, 500))

    def test_tangled_grid(self):
        cfg = load_config(str(Path(__file__).parents[1] / "scripts"
                              / "tangled.yaml"))
        opt = cfg.options["scan"]
        lams, ks = opt["lambda_grid"], opt["k_omega_grid"]
        self.check([lam for lam in lams for _ in ks],
                   [k for _ in lams for k in ks], cfg.params, cfg.pert,
                   ob.Budget(opt["n_iter"], opt["burn_in"]))

    @pytest.mark.parametrize("n_iter", [2, 3, 4, 5])
    def test_escape_after_the_recorded_orbit(self, params_k5, pert, n_iter):
        self.check([0.3] * 3, (0.1, 0.45, 1.0), params_k5, pert,
                   ob.Budget(n_iter=n_iter, burn_in=0))

    @pytest.mark.parametrize("n_iter, on_edge", [(41, 51), (15, 25), (9, 9)])
    def test_escape_on_a_block_boundary(self, params_k5, pert, n_iter,
                                        on_edge):
        """Blocks of 10 steps: the orbit escaping at step 9 escapes on the
        last step of the first block or on the first Lyapunov step; the one
        at `on_edge` on the first step of a Lyapunov block.  n_iter is not
        a multiple of the block or of QR_CADENCE."""
        lams, ks = zip(*self.ESCAPING, (1e-3, 0.45), (1e-2, 15.0))
        with _block_points(1):
            budget = ob.Budget(n_iter=n_iter, burn_in=0)
            self.check(lams, ks, params_k5, pert, budget)
        runs = ref.lockstep([params_k5.with_k_omega(k).with_lambda(lam)
                             for lam, k in zip(lams, ks)], pert, budget)
        edge = dict(zip((8, 9, 25, 51), runs))[on_edge]
        assert edge[1].escaped_at == on_edge - n_iter

    def test_lyapunov_run_not_a_multiple_of_the_block(self, params_k5, pert):
        lams, ks = self.grid()
        self.check(lams, ks, params_k5, pert, ob.Budget(1234, 7))

    @pytest.mark.parametrize("points", [1, 4096])
    @pytest.mark.parametrize("xi, first", [(-0.5000000000000001, TWO_PI),
                                           (-TWO_PI - 0.5, 0.0)])
    def test_angle_wrapped_by_remainder(self, params_k5, pert, points, xi,
                                        first):
        """At K_omega = 1e-290 and lam = 1e-300 or 1e-30 the first image
        angle is 0.5 + xi: -1.1e-16, which np.remainder wraps to 2pi, or
        -2pi, which it wraps to +0; iterate's `%` gives the same bits."""
        lams, ks = self.grid()
        lams, ks = [1e-300, 1e-30] + lams, [1e-290, 1e-290] + ks
        base = dataclasses.replace(params_k5, xi=xi)
        with _block_points(points):
            self.check(lams, ks, base, pert, ob.Budget(30, 0))
        params = [base.with_k_omega(k).with_lambda(lam)
                  for lam, k in zip(lams[:2], ks[:2])]
        for points, _, _ in ref.lockstep(params, pert, ob.Budget(30, 0)):
            assert repr(float(points[1, 0])) == repr(first)
        for p in params:
            orbit = ob.iterate(p, pert, CylinderPoint(0.5, p.lam), 1)
            assert repr(float(orbit.points[1, 0])) == repr(first)

    @given(points=st.sampled_from([1, 20, 160, 4096]) | st.integers(1, 3000),
           n_iter=st.integers(1, 120), burn_in=st.integers(0, 60),
           xi=st.sampled_from([0.0, -1.0]) | st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_any_block_size(self, params_k5, pert, points, n_iter, burn_in,
                            xi):
        """Any block size, budget and phase offset xi (xi < 0 often turns
        an image angle negative, which np.remainder wraps)."""
        lams, ks = self.grid()
        lams, ks = lams + [lam for lam, _ in self.ESCAPING], \
            ks + [k for _, k in self.ESCAPING]
        with _block_points(points):
            self.check(lams, ks, dataclasses.replace(params_k5, xi=xi), pert,
                       ob.Budget(n_iter, burn_in))


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
    assert circle_gap(p.x + TWO_PI * rho_min, q.x) <= 1e-12


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
