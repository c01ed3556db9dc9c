import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    def test_reports_finite_k(self, params_k5, pert, monkeypatch):
        monkeypatch.setattr(au, "H1_SAMPLES", 500)
        v = au.audit_H1(params_k5, pert)
        assert math.isfinite(v.evidence["k"])
        assert v.evidence["negative_determinants"] == 0

    def test_cap_controls_verdict(self, params_k5, pert, monkeypatch):
        monkeypatch.setattr(au, "H1_SAMPLES", 500)
        monkeypatch.setitem(au.THRESHOLDS, "h1_ratio_cap", 1.0)
        tight = au.audit_H1(params_k5, pert)
        assert tight.status == "FAIL"
        monkeypatch.setitem(au.THRESHOLDS, "h1_ratio_cap", 1e9)
        loose = au.audit_H1(params_k5, pert)
        assert loose.status == "PASS"

    def test_fold_fails(self, params_k5, pert, monkeypatch):
        # det DF = delta*Y^(delta-1)*(1 + lam*Phi1_x) is negative where
        # 500*lam*sin x > 1 and positive elsewhere, so it vanishes between
        # samples; the cap is lifted so that only the fold can fail H1
        monkeypatch.setitem(au.THRESHOLDS, "h1_ratio_cap", 1e30)
        folded = Perturbation(phi1=named_profile("cosine", amplitude=500.0),
                              phi2=named_profile("offset_sine"))
        v = au.audit_H1(params_k5, folded)
        assert v.status == "FAIL"
        assert v.evidence["negative_determinants"] == 216
        v = au.audit_H1(params_k5, pert)
        assert v.status == "PASS"
        assert v.evidence["negative_determinants"] == 0

    def test_largest_lambda_cap_held_reported(self, params_k5, pert,
                                              monkeypatch):
        monkeypatch.setattr(au, "H1_SAMPLES", 500)
        v = au.audit_H1(params_k5, pert)
        assert "largest_lambda_cap_held" in v.evidence

    @pytest.mark.parametrize("k_omega", [0.3, 5.0, 15.0])
    @pytest.mark.parametrize("pair", [reference_perturbation(), ref.SLOPED],
                             ids=["reference", "sloped"])
    def test_matches_scalar_reference(self, k_omega, pair, monkeypatch):
        params = reference_params().with_k_omega(k_omega)
        # the ratio is 1e7 or more here, so the caps give FAIL, a cap held
        # only up to some lam, and PASS
        for seed, lam_range, cap in ((0, (1e-4, 1e-2), 1e3),
                                     (1, (1e-5, 1e-3), 1e7),
                                     (7, (1e-3, 1e-1), 1e9)):
            monkeypatch.setitem(au.THRESHOLDS, "h1_ratio_cap", cap)
            got = au.audit_H1(params, pair, lam_range=lam_range, seed=seed)
            want = ref.audit_H1(params, pair, lam_range=lam_range, seed=seed)
            assert got.status == want.status
            for key in ("k", "det_ratio"):
                assert got.evidence[key] == pytest.approx(
                    want.evidence[key], rel=1e-13, abs=0.0)
            for key in ("negative_determinants", "lambda_max_checked",
                        "largest_lambda_cap_held", "ratio_cap", "samples"):
                assert got.evidence[key] == want.evidence[key]

    def test_det_floor_fails_at_first_drawn_sample(self, params_k5, pert,
                                                   monkeypatch):
        draws = h1_draws(2000, (1e-4, 1e-2), 0)
        dets = [abs(det_jac_return(CylinderPoint(x, lam * ybar),
                                   params_k5.with_lambda(lam), pert))
                for lam, x, ybar in draws]
        floor = float(np.median(dets))
        first = next(i for i, d in enumerate(dets) if d <= floor)
        assert first > 0
        monkeypatch.setitem(au.THRESHOLDS, "h1_det_floor", floor)
        v = au.audit_H1(params_k5, pert)
        lam, x, ybar = draws[first]
        assert v.status == "FAIL"
        assert v.evidence == {"reason": "degenerate determinant",
                              "witness": {"x": x, "ybar": ybar,
                                          "lambda": lam}}
        assert v.to_dict() == ref.audit_H1(params_k5, pert).to_dict()

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
        v = au.audit_H2_H3(ref_params, pert)
        assert v.status == "PASS"
        # every row of n = 3..12 at K_omega = 3 is predicted above the floor
        assert v.evidence["judged_rows"] == 10
        assert v.evidence["outside_bounds"] == []

    # lambda_(1,n)^5 leaves the normal floats at n = 12 for K_omega = 0.51
    # and at n = 7 for 0.3; 0.25 keeps 3 rows.  Every row is predicted below
    # the floor (lambda_(1,3) = 1.3e-17 at K_omega = 0.51, the floor 5.7e-14)
    @pytest.mark.parametrize("k_omega, n_range", [
        (0.51, [3, 12]), (0.3, [3, 7]), (0.25, [3, 6])])
    def test_small_twist_cuts_the_n_range(self, pert, k_omega, n_range):
        v = au.audit_H2_H3(reference_params(omega=k_omega / 3.0), pert)
        assert v.status == "INCONCLUSIVE"
        assert v.evidence["judged_rows"] == 0
        assert v.evidence["n_range"] == n_range
        assert [r["n"] for r in v.evidence["table"]] == list(range(*n_range))
        last, cut = (cm.lambda_sequences(k_omega, n, au.H2H3_A)[1] ** 5
                     for n in (n_range[1] - 1, n_range[1]))
        assert last >= sys.float_info.min > cut

    @pytest.mark.parametrize("k_omega, n_range", [(0.1, [3, 3]),
                                                  (0.2, [3, 5])])
    def test_fewer_than_three_rows_inconclusive(self, pert, k_omega,
                                                n_range):
        v = au.audit_H2_H3(reference_params(omega=k_omega / 3.0), pert)
        assert v.status == "INCONCLUSIVE"
        assert v.evidence["n_range"] == n_range
        assert len(v.evidence["table"]) == n_range[1] - n_range[0]

    @pytest.mark.parametrize("k_omega, status", [
        (0.54, "INCONCLUSIVE"), (0.6, "INCONCLUSIVE"), (0.8, "INCONCLUSIVE"),
        (1.0, "INCONCLUSIVE"), (1.5, "PASS"), (2.0, "PASS"), (8.0, "PASS"),
        (11.0, "PASS"), (15.0, "FAIL")])
    def test_status_by_twist(self, pert, k_omega, status):
        """Rows predicted above the floor: 1 at K_omega = 0.8, 2 at 1.0,
        4 at 1.5; at 15 the last row, lambda_(1,12) = 6.1e-3, is above
        h2h3_final_tol and no row is outside its bounds."""
        v = au.audit_H2_H3(reference_params(omega=k_omega / 3.0), pert)
        assert v.status == status
        assert v.evidence["outside_bounds"] == []

    @pytest.mark.parametrize("k_omega", [5.0, 0.54])
    @pytest.mark.parametrize("mutant", ["twist_sign", "xi", "section"])
    def test_mutant_family_fails(self, pert, monkeypatch, k_omega, mutant):
        """A limit family that is not the kernel's fails, also at
        K_omega = 0.54, where no row is judged from below: the errors
        exceed the upper bound predicted + floor."""
        params = reference_params(omega=k_omega / 3.0)
        family = cm.family_from_model(params, pert)
        family = replace(family, **{
            "twist_sign": {"k_omega": -family.k_omega},
            "xi": {"xi": family.xi + 1e-3},
            "section": {"phi2_section": TrigPoly(1.2, ((1, 0.0, 1.0),))},
        }[mutant])
        monkeypatch.setattr(cm, "family_from_model", lambda *_: family)
        v = au.audit_H2_H3(params, pert)
        assert v.status == "FAIL"
        assert len(v.evidence["outside_bounds"]) >= 10

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


def offset_sine_family(k_omega):
    """The reference section Phi2 = 1.1 + sin x at twist k_omega."""
    return cm.CircleMapFamily(xi=0.0, k_omega=k_omega,
                              phi2_section=TrigPoly(1.1, ((1, 0.0, 1.0),)))


class TestH4Screen:
    """H4 certifies in full only the a whose critical orbits avoid the set."""

    @given(k_omega=st.floats(min_value=0.5, max_value=10.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_a=st.integers(min_value=1, max_value=96),
           lo=st.floats(min_value=-TWO_PI, max_value=TWO_PI),
           width=st.floats(min_value=1e-3, max_value=TWO_PI))
    @settings(max_examples=20, deadline=None)
    def test_matches_unscreened_reference(self, k_omega, seed, n_a, lo,
                                          width):
        fam = offset_sine_family(k_omega)
        window = (lo, lo + width)
        got = au.audit_H4(fam, a_window=window, n_a=n_a, seed=seed)
        want = ref.audit_H4(fam, a_window=window, n_a=n_a, seed=seed)
        assert (got.status, got.evidence) == (want.status, want.evidence)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k5_matches_unscreened_reference(self, family_k5, seed):
        got = au.audit_H4(family_k5, n_a=64, seed=seed)
        assert got.status == "PASS"
        assert got.to_dict() == ref.audit_H4(family_k5, n_a=64,
                                             seed=seed).to_dict()

    # at K=8, n_a=128 two parameters come within delta0 only at the last step
    @pytest.mark.parametrize("k_omega, n_a", [(5.0, 64), (8.0, 128)])
    def test_scan_sees_only_avoiding_parameters(self, k_omega, n_a,
                                                monkeypatch):
        fam = offset_sine_family(k_omega)
        seen = []
        scan = cm.misiurewicz_scan

        def recording(family, a_values, *args, **kwargs):
            seen.extend(float(a) for a in a_values)
            return scan(family, a_values, *args, **kwargs)

        monkeypatch.setattr(cm, "misiurewicz_scan", recording)
        v = au.audit_H4(fam, n_a=n_a)
        delta0, horizon = au.THRESHOLDS["h4_delta0"], au.THRESHOLDS["h4_horizon"]
        grid = np.linspace(0.0, TWO_PI, n_a, endpoint=False).tolist()
        assert 0 < len(seen) < len(grid) and set(seen) <= set(grid)
        dist = ref.critical_orbit_distances(fam, grid, horizon)
        for a, d in zip(grid, dist):
            assert (a in seen) == (d.min() >= delta0)
        assert {e["a"] for e in v.evidence["passing"]} <= set(seen)

    def test_no_survivor_fails(self, family_k5, monkeypatch):
        # around a superstable fixed point the critical point returns onto
        # itself after one step, so every a of the window fails (1b)
        s = cm.superstable_search(family_k5, 1, a_window=(0.0, TWO_PI))[0]
        window = (s.a_star - 1e-6, s.a_star + 1e-6)
        seen = []
        scan = cm.misiurewicz_scan
        monkeypatch.setattr(cm, "misiurewicz_scan",
                            lambda fam, a_values, **kw: seen.extend(a_values)
                            or scan(fam, a_values, **kw))
        v = au.audit_H4(family_k5, a_window=window, n_a=8)
        assert v.status == "FAIL" and v.evidence["passing"] == []
        assert v.evidence["scanned"] == 8 and seen == []
        assert v.to_dict() == ref.audit_H4(family_k5, a_window=window,
                                           n_a=8).to_dict()


class TestH5:
    def test_reference_pass(self, family_k5):
        v = au.audit_H5_proxy(family_k5, 0.0)
        assert v.status == "PASS"
        assert v.proxy
        assert v.evidence["margin"] > 1e-3

    def test_dp_da_matches_fixed_target_pullback(self, family_k5):
        v = au.audit_H5_proxy(family_k5, 0.0)
        assert abs(v.evidence["dp_da"] - ref.h5_dp_da(family_k5, 0.0)) < 1e-3

    def test_margin_below_threshold_fails(self, family_k5, monkeypatch):
        margin = au.audit_H5_proxy(family_k5, 0.0).evidence["margin"]
        monkeypatch.setitem(au.THRESHOLDS, "h5_margin", margin + 1e-3)
        v = au.audit_H5_proxy(family_k5, 0.0)
        assert v.status == "FAIL"
        assert v.evidence["margin"] == margin

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

    @pytest.mark.parametrize("k_omega", [2.0, 5.0, 8.0])
    @pytest.mark.parametrize("pair", [ref.SLOPED, ref.TANGLED],
                             ids=["sloped", "tangled"])
    def test_sloped_closed_form(self, k_omega, pair):
        # -K (1 + Phi2_y(c, 0)) / Phi2(c, 0), the profile sums written out
        params = reference_params().with_k_omega(k_omega)
        crit = cm.family_from_model(params, pair).critical_set
        assert crit.q > 0
        v = au.audit_H6(params, pair, crit)
        for c, d in zip(crit.points, v.evidence["derivatives"]):
            want = (-k_omega * (1.0 + ref.trig_value(pair.phi2.slope, c))
                    / ref.trig_value(pair.phi2.base, c))
            assert d == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("pair", [reference_perturbation(), ref.SLOPED,
                                      ref.TANGLED],
                             ids=["reference", "sloped", "tangled"])
    def test_matches_central_difference(self, pair):
        params = reference_params().with_k_omega(5.0)
        crit = cm.family_from_model(params, pair).critical_set
        v = au.audit_H6(params, pair, crit)
        for c, d in zip(crit.points, v.evidence["derivatives"]):
            want = ref.h6_height_derivative(params, pair, float(c))
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

    def test_boundary_exactness(self):
        lo = 3.0 * math.log(2.0)
        assert au.h7_accepts_lambda0(lo + 1e-12)
        assert not au.h7_accepts_lambda0(lo - 1e-12)

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
            budget=Budget(n_iter=2000, burn_in=500))
        assert out["fraction"] <= 0.05
        assert out["confidence_interval"][1] > 0.0

    def test_sample_floor(self, params_k5, pert):
        with pytest.raises(ValueError):
            au.strange_attractor_fraction(params_k5, pert, r=0.01, samples=10)
