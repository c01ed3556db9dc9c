import json
import math

import numpy as np
import pytest

import scalar_reference as ref
from bykovlab import audit as au
from bykovlab import circlemap as cm
from bykovlab.model import (TWO_PI, CylinderFunction, CylinderPoint,
                            Perturbation, TrigPoly, det_jac_return,
                            named_profile, reference_params,
                            reference_perturbation)


def h1_draws(sample_size, lam_range, seed):
    """H1's determinant samples (lam, x, ybar) in draw order."""
    rng = np.random.default_rng(seed)
    lams = np.exp(rng.uniform(math.log(lam_range[0]), math.log(lam_range[1]),
                              sample_size))
    draws = [(float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(0.0, 1.0)))
             for _ in lams]
    return [(float(lam), x, ybar) for lam, (x, ybar) in zip(lams, draws)]


class TestH1:
    def test_reports_finite_k(self, params_k5, pert):
        v = au.audit_H1(params_k5, pert, sample_size=500)
        assert math.isfinite(v.evidence["k"])
        assert v.evidence["injectivity_collisions"] == 0

    def test_cap_controls_verdict(self, params_k5, pert):
        tight = au.audit_H1(params_k5, pert, sample_size=500,
                            thresholds={**au.DEFAULT_THRESHOLDS,
                                        "h1_ratio_cap": 1.0})
        assert tight.status == "FAIL"
        loose = au.audit_H1(params_k5, pert, sample_size=500,
                            thresholds={**au.DEFAULT_THRESHOLDS,
                                        "h1_ratio_cap": 1e9})
        assert loose.status == "PASS"

    def test_largest_lambda_cap_held_reported(self, params_k5, pert):
        v = au.audit_H1(params_k5, pert, sample_size=500)
        assert "largest_lambda_cap_held" in v.evidence

    @pytest.mark.parametrize("k_omega", [0.3, 5.0, 15.0])
    @pytest.mark.parametrize("pair", [reference_perturbation(), ref.SLOPED],
                             ids=["reference", "sloped"])
    def test_matches_scalar_reference(self, k_omega, pair):
        params = reference_params().with_k_omega(k_omega)
        # the ratio is 1e7 or more here, so the caps give FAIL, a cap held
        # only up to some lam, and PASS
        for seed, lam_range, cap in ((0, (1e-4, 1e-2), 1e3),
                                     (1, (1e-5, 1e-3), 1e7),
                                     (7, (1e-3, 1e-1), 1e9)):
            t = {**au.DEFAULT_THRESHOLDS, "h1_ratio_cap": cap}
            got = au.audit_H1(params, pair, lam_range=lam_range, seed=seed,
                              thresholds=t)
            want = ref.audit_H1(params, pair, lam_range=lam_range, seed=seed,
                                thresholds=t)
            assert got.status == want.status
            for key in ("k", "det_ratio"):
                assert got.evidence[key] == pytest.approx(
                    want.evidence[key], rel=1e-13, abs=0.0)
            for key in ("injectivity_collisions", "lambda_max_checked",
                        "largest_lambda_cap_held", "ratio_cap", "samples"):
                assert got.evidence[key] == want.evidence[key]

    def test_det_floor_fails_at_first_drawn_sample(self, params_k5, pert):
        draws = h1_draws(2000, (1e-4, 1e-2), 0)
        dets = [abs(det_jac_return(CylinderPoint(x, lam * ybar),
                                   params_k5.with_lambda(lam), pert))
                for lam, x, ybar in draws]
        floor = float(np.median(dets))
        first = next(i for i, d in enumerate(dets) if d <= floor)
        assert first > 0
        t = {**au.DEFAULT_THRESHOLDS, "h1_det_floor": floor}
        v = au.audit_H1(params_k5, pert, thresholds=t)
        lam, x, ybar = draws[first]
        assert v.status == "FAIL"
        assert v.evidence == {"reason": "degenerate determinant",
                              "witness": {"x": x, "ybar": ybar,
                                          "lambda": lam}}
        assert v.to_dict() == ref.audit_H1(params_k5, pert,
                                           thresholds=t).to_dict()

    def test_sample_off_the_domain_fails(self, params_k5):
        # Phi2 = 1.1 + sin x - 50 y is positive for |y| <= 1e-3, but
        # y + lam*Phi2 = lam*(ybar*(1 - 50 lam) + 1.1 + sin x) turns negative
        # for lam > 0.02 and ybar large enough
        pair = Perturbation(
            phi1=named_profile("cosine"),
            phi2=CylinderFunction(TrigPoly(1.1, ((1, 0.0, 1.0),)),
                                  slope=TrigPoly(-50.0, ())),
            epsilon=1e-3)
        pair.validate()
        lam_range = (0.05, 0.2)
        draws = h1_draws(2000, lam_range, 0)
        first = next(i for i, (lam, x, ybar) in enumerate(draws)
                     if lam * ybar + lam * pair.phi2(x, lam * ybar) <= 0.0)
        v = au.audit_H1(params_k5, pair, lam_range=lam_range)
        lam, x, ybar = draws[first]
        assert v.status == "FAIL"
        assert v.evidence == {"reason": "degenerate determinant",
                              "witness": {"x": x, "ybar": ybar,
                                          "lambda": lam}}


class TestH2H3:
    def test_reference_pass(self, ref_params, pert):
        v = au.audit_H2_H3(ref_params, pert, a=1.0)
        assert v.status == "PASS"
        assert all(v.evidence["monotone"].values())

    def test_larger_twist_needs_more_n(self, pert):
        # lambda_n = exp(-2 pi n / K): larger K decays slower per step
        small = reference_params(omega=1.0)
        large = reference_params(omega=5.0)
        r_small = cm.singular_limit_convergence(small, pert, 1.0, range(4, 9))
        r_large = cm.singular_limit_convergence(large, pert, 1.0, range(4, 9))
        assert r_large[-1].value_err > r_small[-1].value_err


class TestH4:
    def test_diffeo_regime_fails(self, family_k03):
        v = au.audit_H4(family_k03)
        assert v.status == "FAIL"
        assert "increase K_omega" in v.evidence["reason"]

    def test_k5_pass_set(self, family_k5):
        v = au.audit_H4(family_k5, n_a=64)
        assert v.status == "PASS"
        assert len(v.evidence["passing"]) >= 1
        for entry in v.evidence["passing"]:
            assert entry["lambda0"] > 0.0


class TestH5:
    def test_reference_pass(self, family_k5):
        v = au.audit_H5_proxy(family_k5, 0.0)
        assert v.status == "PASS"
        assert v.proxy
        assert v.evidence["margin"] > 1e-3

    def test_fd_step_consistency(self, family_k5):
        margins = []
        for h in (1e-5, 1e-4, 1e-3):
            v = au.audit_H5_proxy(
                family_k5, 0.0,
                thresholds={**au.DEFAULT_THRESHOLDS, "h5_fd_step": h})
            margins.append(v.evidence["margin"])
        assert max(margins) - min(margins) < 1e-6

    def test_no_critical_points_fails(self, family_k03):
        v = au.audit_H5_proxy(family_k03, 0.0)
        assert v.status == "FAIL"


class TestH6:
    def test_y_independent_closed_form(self, params_k5, pert, family_k5):
        crit = cm.critical_points(family_k5)
        v = au.audit_H6(params_k5, pert, crit)
        assert v.status == "PASS"
        for c, d in zip(crit.points, v.evidence["derivatives"]):
            want = -params_k5.k_omega / pert.phi2(float(c), 0.0)
            assert d == pytest.approx(want, rel=1e-6)

    def test_engineered_cancellation_fails(self, params_k5):
        # Phi2 = (1.1 + sin x)(1 - y): height-derivative at ybar = 0 is
        # -K (1 + dPhi2/dy) / Phi2 with dPhi2/dy = -Phi2(x,0), so the
        # numerator is 1 - Phi2(x,0), which vanishes where Phi2(x,0) = 1
        phi2 = CylinderFunction(TrigPoly(1.1, ((1, 0.0, 1.0),)),
                                slope=TrigPoly(-1.1, ((1, 0.0, -1.0),)))
        pert_bad = Perturbation(phi1=named_profile("cosine"), phi2=phi2)
        # place the "critical set" at the cancellation point sin x = -0.1
        x_cancel = math.asin(-0.1) + 2 * math.pi
        crit = cm.CriticalSet(points=np.array([x_cancel]),
                              second_derivs=np.array([1.0]))
        v = au.audit_H6(params_k5, pert_bad, crit)
        assert v.status == "FAIL"


class TestH7Arithmetic:
    def test_threshold_examples(self):
        assert au.h7_accepts_lambda0(2.2)          # exp(2.2/3) = 2.08 > 2
        assert not au.h7_accepts_lambda0(2.0)
        assert au.abundance_accepts_lambda0(0.9)   # e^0.9 = 2.46 > ln 10
        assert not au.abundance_accepts_lambda0(0.8)

    def test_boundary_exactness(self):
        lo = 3.0 * math.log(2.0)
        assert au.h7_accepts_lambda0(lo + 1e-12)
        assert not au.h7_accepts_lambda0(lo - 1e-12)
        lo2 = math.log(math.log(10.0))
        assert au.abundance_accepts_lambda0(lo2 + 1e-12)
        assert not au.abundance_accepts_lambda0(lo2 - 1e-12)

    def test_matrix_part(self, family_k5):
        v = au.audit_H7(family_k5, 0.0, lambda0=2.2)
        assert v.evidence["primitive"] and v.evidence["primitive_N"] == 1
        assert v.status == "PASS"
        v_lo = au.audit_H7(family_k5, 0.0, lambda0=1.0)
        assert v_lo.status == "FAIL"


class TestOrchestrator:
    def test_report_is_deterministic_and_ordered(self, params_k5, pert):
        rep1 = au.run_audit(params_k5, pert, n_a=8, seed=0)
        rep2 = au.run_audit(params_k5, pert, n_a=8, seed=0)
        j1 = json.dumps(rep1.to_report(), sort_keys=True)
        j2 = json.dumps(rep2.to_report(), sort_keys=True)
        assert j1 == j2
        names = [v.name for v in rep1.verdicts]
        assert names == ["H1", "H2H3", "H4", "H5", "H6", "H7"]

    def test_overall_logic(self, params_k5, pert):
        rep = au.run_audit(params_k5, pert, n_a=8, seed=0)
        statuses = {v.name: v.status for v in rep.verdicts}
        if all(s == "PASS" for s in statuses.values()):
            assert rep.overall == "numerically supported"
        else:
            assert rep.overall in ("FAIL", "INCONCLUSIVE")

    def test_unknown_threshold_rejected(self, params_k5, pert):
        with pytest.raises(ValueError):
            au.run_audit(params_k5, pert, thresholds={"bogus": 1.0})

    def test_critical_set_computed_once(self, params_k5, pert, monkeypatch):
        calls = []
        original = cm.critical_points

        def counting(family, *args, **kwargs):
            calls.append(family)
            return original(family, *args, **kwargs)

        monkeypatch.setattr(cm, "critical_points", counting)
        au.run_audit(params_k5, pert, n_a=8, seed=0)
        assert len(calls) == 1


class TestFraction:
    def test_diffeo_regime_near_zero(self, pert):
        from bykovlab.orbits import Budget
        params = reference_params(omega=0.05)
        out = au.strange_attractor_fraction(
            params, pert, r=0.01, samples=100, seed=0,
            budget=Budget(n_iter=2000, burn_in=500, curve_thresh=0.02))
        assert out["fraction"] <= 0.05

    def test_sample_floor(self, params_k5, pert):
        with pytest.raises(ValueError):
            au.strange_attractor_fraction(params_k5, pert, r=0.01, samples=10)
