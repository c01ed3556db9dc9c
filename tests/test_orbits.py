import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestLyapunov:
    def test_synthetic_diagonal_harness(self, ref_params, pert):
        jac = lambda p: np.array([[2.0, 0.0], [0.0, 0.5]])
        step = lambda p: CylinderPoint(wrap_angle(p.x + 0.7), p.y)
        est = ob.lyapunov(ref_params, pert, CylinderPoint(0.1, 0.5), 4000,
                          burn_in=0, jac=jac, step=step)
        assert est.chi1 == pytest.approx(math.log(2.0), abs=1e-10)
        assert est.chi2 == pytest.approx(-math.log(2.0), abs=1e-10)

    def test_rotated_harness(self, ref_params, pert):
        # a rotation times a diagonal still yields (ln 2, -ln 2)
        th = 0.3
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        m = rot @ np.diag([2.0, 0.5]) @ rot.T
        est = ob.lyapunov(ref_params, pert, CylinderPoint(0.1, 0.5), 4000,
                          burn_in=0, jac=lambda p: m,
                          step=lambda p: CylinderPoint(wrap_angle(p.x + 0.7),
                                                       p.y))
        # non-commuting products converge like 1/n, not to machine precision
        assert est.chi1 == pytest.approx(math.log(2.0), abs=1e-3)
        assert est.chi2 == pytest.approx(-math.log(2.0), abs=1e-3)

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


class TestBirkhoff:
    def test_constant_observable(self, params_k5, pert):
        params = params_k5.with_lambda(1e-3)
        orbit = ob.iterate(params, pert, CylinderPoint(0.5, 1e-3), 500)
        val, drift = ob.birkhoff_average(orbit, lambda x, y: 2.5)
        assert val == 2.5 and drift == 0.0

    def test_periodic_orbit_drift_small(self, params_k5, pert):
        lam = 0.140322
        params = params_k5.with_lambda(lam)
        orbit = ob.iterate(params, pert, CylinderPoint(1.0, lam), 2000,
                           burn_in=500)
        _, drift = ob.birkhoff_average(orbit, lambda x, y: np.cos(x))
        assert drift <= 1e-10


class TestAutocorrelation:
    def test_periodic_signal_no_decay(self):
        from bykovlab.model import OrbitRecord
        pts = np.tile([[1.0, 0.5], [2.5, 0.3]], (1000, 1))
        orbit = OrbitRecord(points=pts, escaped=False, escape_index=None)
        rho, tau, r2 = ob.autocorrelation(orbit, lambda x, y: np.cos(x), 50)
        # period-2 signal: correlation at even lags stays ~1, no decay
        assert abs(rho[2]) > 0.9
        assert abs(rho[4]) > 0.9

    def test_iid_noise_decorrelates(self):
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(0, TWO_PI, 20_000),
                               rng.uniform(0, 1, 20_000)])
        from bykovlab.model import OrbitRecord
        orbit = OrbitRecord(points=pts, escaped=False, escape_index=None)
        rho, tau, r2 = ob.autocorrelation(orbit, lambda x, y: x, 100)
        assert rho[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho[1:])) < 0.05

    def test_zero_variance_flagged(self):
        from bykovlab.model import OrbitRecord
        pts = np.tile([1.0, 0.5], (2000, 1))
        orbit = OrbitRecord(points=pts, escaped=False, escape_index=None)
        rho, tau, r2 = ob.autocorrelation(orbit, lambda x, y: x, 10)
        assert math.isnan(tau)


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
    BUDGET = ob.Budget(n_iter=15_000, burn_in=2_000, curve_thresh=0.02)

    def test_invariant_curve_small_twist(self, ref_params, pert):
        cell = ob.classify_cell(1e-3, 0.1, ref_params, pert, self.BUDGET)
        assert cell.label == "InvariantCurve"

    def test_periodic_sink_in_tongue(self, ref_params, pert):
        cell = ob.classify_cell(1e-3, 0.45, ref_params, pert, self.BUDGET)
        assert cell.label == "PeriodicSink"
        assert cell.chi1 < 0.0  # period detection agrees with the exponent

    def test_strange_candidate_large_twist(self, ref_params, pert):
        cell = ob.classify_cell(1e-3, 15.0, ref_params, pert, self.BUDGET)
        assert cell.label == "StrangeAttractorCandidate"
        assert cell.chi1 > self.BUDGET.chi_thresh

    def test_label_full_includes_period(self, ref_params, pert):
        cell = ob.classify_cell(1e-3, 0.45, ref_params, pert, self.BUDGET)
        assert cell.label_full.startswith("PeriodicSink(")


class TestScan:
    def test_shapes_and_determinism(self, ref_params, pert):
        budget = ob.Budget(n_iter=4000, burn_in=500, curve_thresh=0.02)
        r1 = ob.scan([1e-4, 1e-3], [0.1, 8.0], ref_params, pert, budget,
                     threads=1)
        r2 = ob.scan([1e-3, 1e-4], [8.0, 0.1], ref_params, pert, budget,
                     threads=2)
        assert ob.scan_rows(r1) == ob.scan_rows(r2)
        assert len(r1.cells) == 2 and len(r1.cells[0]) == 2

    def test_boundary_extraction(self, ref_params, pert):
        budget = ob.Budget(n_iter=4000, burn_in=500, curve_thresh=0.02)
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
