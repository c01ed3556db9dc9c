import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from bykovlab import audit as au
from bykovlab import circlemap as cm
from bykovlab.model import TWO_PI, TrigPoly, reference_params


class DoublingFamily(cm.CircleMapFamily):
    """Expanding test family h(x) = 2x mod 2pi (empty critical set)."""

    def lift(self, a, xhat):
        return 2.0 * np.asarray(xhat) + a

    def val(self, a, x):
        out = np.mod(self.lift(a, x), TWO_PI)
        return float(out) if np.ndim(out) == 0 else out

    def deriv(self, x):
        return 2.0 + 0.0 * np.asarray(x)

    def deriv2(self, x):
        return 0.0 * np.asarray(x)


def doubling():
    return DoublingFamily(xi=0.0, k_omega=1.0, phi2_section=TrigPoly(1.0, ()))


class TestMisiurewicz:
    def test_doubling_vacuous_pass(self):
        cert = cm.misiurewicz_check(doubling(), 0.0, horizon=1000)
        assert cert.vacuous and cert.passed
        assert cert.lambda0 == pytest.approx(math.log(2.0), abs=0.01)

    def test_diffeo_regime_records_expansion_failure(self, family_k03):
        cert = cm.misiurewicz_check(family_k03, 0.0, horizon=1000)
        assert cert.vacuous
        assert cert.lambda0 <= 0.0
        assert not cert.passed  # expansion failure recorded in (2a)/(2b)

    def test_k5_scan_has_passing_subset(self, family_k5):
        passing = []
        for a in np.linspace(0.0, TWO_PI, 64, endpoint=False):
            cert = cm.misiurewicz_check(family_k5, float(a), delta0=0.05,
                                        horizon=50)
            if cert.passed:
                passing.append(float(a))
        assert passing  # regression fixture: nonempty pass set at K=5
        assert 0.0 in passing

    def test_certificate_constants_positive_on_pass(self, cert_k5):
        assert cert_k5.lambda0 > 0.0
        assert cert_k5.b0 > 0.0
        assert cert_k5.delta0 == 0.05

    def test_report_schema_shape(self, cert_k5):
        rep = cert_k5.to_report()
        assert rep["kind"] == "misiurewicz-certificate"
        assert {"grid", "seeds", "tolerances"} <= set(rep["provenance"])
        for v in rep["verdicts"]:
            assert {"condition", "pass", "witness"} <= set(v)

    def test_single_segment_length_is_insufficient(self, family_k5):
        # at horizon 1 every sample is a length-1 segment: the slope fit is
        # rank-deficient and must not certify expansion
        cert = cm.misiurewicz_check(family_k5, 0.0, horizon=1)
        v2a, v2b = cert.verdicts[2:]
        assert (v2a.passed, v2a.witness) == (
            False, "insufficient expansion samples")
        assert (v2b.passed, v2b.witness) == (False, "insufficient samples")
        assert math.isnan(cert.lambda0) and not cert.passed
        assert reports([cert]) == reports(
            [ref.misiurewicz_check(family_k5, 0.0, horizon=1)])

    def test_invalid_arguments(self, family_k5):
        with pytest.raises(ValueError):
            cm.misiurewicz_check(family_k5, 0.0, horizon=0)
        with pytest.raises(ValueError):
            cm.misiurewicz_check(family_k5, 0.0, delta0=-1.0)


def reports(certs) -> list[str]:
    """Certificates as JSON text, so that a NaN lambda0 compares equal."""
    return [json.dumps(c.to_report()) for c in certs]


class TestMisiurewiczScan:
    """The lockstep scan against the one-orbit-at-a-time reference loop."""

    @given(a_values=st.lists(st.floats(min_value=-TWO_PI, max_value=2 * TWO_PI),
                             min_size=1, max_size=3),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           delta0=st.floats(min_value=1e-3, max_value=0.5),
           horizon=st.integers(min_value=1, max_value=50),
           n_seeds=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_reference(self, family_k5, a_values, seed, delta0,
                                      horizon, n_seeds):
        certs = cm.misiurewicz_scan(family_k5, a_values, delta0, horizon,
                                    n_seeds, seed)
        assert reports(certs) == reports(
            ref.misiurewicz_check(family_k5, a, delta0, horizon, n_seeds, seed)
            for a in a_values)

    @pytest.mark.parametrize("family", ["family_k03", "doubling"])
    @given(a_values=st.lists(st.floats(min_value=-TWO_PI, max_value=TWO_PI),
                             max_size=3),
           horizon=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_vacuous_matches_scalar_reference(self, request, family,
                                              a_values, horizon):
        fam = doubling() if family == "doubling" else \
            request.getfixturevalue(family)
        certs = cm.misiurewicz_scan(fam, a_values, horizon=horizon)
        assert reports(certs) == reports(
            ref.misiurewicz_check(fam, a, horizon=horizon) for a in a_values)
        assert all(c.vacuous for c in certs)

    def test_default_constants_match_scalar_reference(self, family_k5):
        a_values = [0.0, 0.5, 1.3, 4.0]
        certs = cm.misiurewicz_scan(family_k5, a_values)
        assert reports(certs) == reports(
            ref.misiurewicz_check(family_k5, a) for a in a_values)
        assert certs[0].passed

    def test_multi_harmonic_matches_scalar_reference(self):
        # Phi2 = 1.5 + sin x + 0.3 cos 2x at K=5: the second harmonic takes
        # the k * x path of the section's jet
        fam = cm.CircleMapFamily(xi=0.0, k_omega=5.0, phi2_section=TrigPoly(
            1.5, ((1, 0.0, 1.0), (2, 0.3, 0.0))))
        assert fam.critical_set.q == 2
        a_values = np.linspace(0.0, TWO_PI, 8, endpoint=False).tolist()
        certs = cm.misiurewicz_scan(fam, a_values)
        assert reports(certs) == reports(
            ref.misiurewicz_check(fam, a) for a in a_values)

    def test_check_is_the_one_parameter_scan(self, family_k5):
        cert = cm.misiurewicz_check(family_k5, 1.3, delta0=0.1, horizon=20,
                                    n_seeds=5, seed=7)
        assert isinstance(cert, cm.MisiurewiczCertificate)
        (same,) = cm.misiurewicz_scan(family_k5, [1.3], 0.1, 20, 5, 7)
        assert reports([cert]) == reports([same])

    def test_audit_h4_matches_separate_checks(self, family_k5):
        grid = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        v = au.audit_H4(family_k5, n_a=64)
        t = au.THRESHOLDS
        separate = []
        for a in grid:
            cert = cm.misiurewicz_check(family_k5, float(a),
                                        delta0=t["h4_delta0"],
                                        horizon=t["h4_horizon"])
            if cert.passed:
                separate.append({"a": float(a), "lambda0": cert.lambda0,
                                 "b0": cert.b0})
        assert v.evidence["passing"] == separate

    def test_empty_parameter_list(self, family_k5):
        assert cm.misiurewicz_scan(family_k5, []) == []


OFFSET_SINE = TrigPoly(1.1, ((1, 0.0, 1.0),))  # the reference Phi2
FOUR_TURNS = TrigPoly(2.0, ((1, 0.0, 1.0), (3, 0.5, 0.0)))  # q = 4 at K=2
FAMILIES = [(0.3, OFFSET_SINE, 0), (0.7, OFFSET_SINE, 2),
            (5.0, OFFSET_SINE, 2), (8.0, OFFSET_SINE, 2),
            (2.0, FOUR_TURNS, 4)]


@pytest.fixture(params=FAMILIES, ids=lambda f: f"K={f[0]}-q={f[2]}")
def any_family(request):
    k_omega, section, q = request.param
    fam = cm.CircleMapFamily(xi=0.0, k_omega=k_omega, phi2_section=section)
    assert fam.critical_set.q == q
    return fam


class TestCriticalOrbitScreen:
    """(1b) from the critical orbits alone, pinned to the loops it replaced."""

    def test_distances_match_scalar_reference(self, any_family):
        a_values = np.linspace(-TWO_PI, TWO_PI, 33)
        got = cm.critical_orbit_distances(any_family, a_values, 100)
        assert got.shape == (33, any_family.critical_set.q, 100)
        assert np.array_equal(
            got, ref.critical_orbit_distances(any_family, a_values, 100))

    def test_certificates_match_lockstep_loop(self, any_family):
        a_values = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        got = cm.misiurewicz_scan(any_family, a_values)
        want = ref.misiurewicz_scan_lockstep(any_family, a_values)
        assert len(got) == len(want) == 64
        for g, w in zip(got, want):
            assert (g.a, g.lambda0, g.b0, g.vacuous) == \
                (w.a, w.lambda0, w.b0, w.vacuous)
            assert [v.to_dict() for v in g.verdicts] == \
                [v.to_dict() for v in w.verdicts]
        if any_family.critical_set.q:
            # both outcomes of (1b) are covered
            assert len({c.verdicts[1].passed for c in got}) == 2


class TestColletEckmann:
    def test_vacuous_when_no_critical_points(self, family_k03):
        cert = cm.misiurewicz_check(family_k03, 0.0, horizon=100)
        fake = cm.MisiurewiczCertificate(
            a=0.0, delta0=0.05, b0=1.0, lambda0=0.7, horizon=100,
            verdicts=[], vacuous=True)
        rep = cm.collet_eckmann_check(family_k03, 0.0, fake)
        assert rep.passed

    def test_lambda_ce_cap_enforced(self, family_k5, cert_k5):
        with pytest.raises(ValueError):
            cm.collet_eckmann_check(family_k5, cert_k5.a, cert_k5,
                                    lambda_ce=cert_k5.lambda0)

    def test_passing_parameter(self, family_k5, cert_k5):
        rep = cm.collet_eckmann_check(family_k5, cert_k5.a, cert_k5,
                                      horizon=50)
        assert rep.lambda_ce < cert_k5.lambda0 / 5.0
        # per-critical-point verdicts with witnesses
        assert len(rep.verdicts) == 4
        for v in rep.verdicts:
            assert v.witness["n"] is not None

    def test_failure_has_witness(self, family_k5, cert_k5):
        # scan a until CE1 fails: some orbit lands near the critical set
        found = None
        for a in np.linspace(0.0, TWO_PI, 128, endpoint=False):
            rep = cm.collet_eckmann_check(family_k5, float(a), cert_k5,
                                          horizon=60)
            ce1 = [v for v in rep.verdicts if v.condition.startswith("CE1")]
            if not all(v.passed for v in ce1):
                found = (a, rep)
                break
        assert found is not None
        _, rep = found
        bad = [v for v in rep.verdicts
               if v.condition.startswith("CE1") and not v.passed]
        assert bad[0].witness["n"] >= 1

    def test_ce2_margin_monotone_in_b0(self, family_k5, cert_k5):
        loose = dataclasses.replace(cert_k5, b0=cert_k5.b0 / 10.0)
        rep_tight = cm.collet_eckmann_check(family_k5, cert_k5.a, cert_k5,
                                            horizon=40)
        rep_loose = cm.collet_eckmann_check(family_k5, cert_k5.a, loose,
                                            horizon=40)
        for vt, vl in zip(rep_tight.verdicts, rep_loose.verdicts):
            if vt.condition.startswith("CE2"):
                assert vl.witness["tightest_log_margin"] >= \
                    vt.witness["tightest_log_margin"]

    @pytest.mark.parametrize("k_omega", [0.3, 5.0, 8.0])
    @pytest.mark.parametrize("horizon", [10, 100])
    def test_matches_scalar_reference(self, pert, k_omega, horizon):
        fam = cm.family_from_model(reference_params(omega=k_omega / 3.0),
                                   pert)
        if fam.critical_set.q:
            cert = cm.misiurewicz_check(fam, 0.0)
        else:  # any positive lambda0: the verdicts are vacuous
            cert = cm.MisiurewiczCertificate(
                a=0.0, delta0=0.05, b0=1.0, lambda0=0.7, horizon=horizon,
                verdicts=[], vacuous=True)
        for a in np.linspace(0.0, TWO_PI, 16, endpoint=False):
            rep = cm.collet_eckmann_check(fam, float(a), cert,
                                          horizon=horizon)
            want = ref.collet_eckmann_check(fam, float(a), cert,
                                            horizon=horizon)
            assert json.dumps(rep.to_report()) == json.dumps(want.to_report())

    @given(a=st.floats(min_value=-TWO_PI, max_value=2 * TWO_PI),
           alpha=st.floats(min_value=0.0, max_value=1.0),
           b0_scale=st.floats(min_value=1e-3, max_value=1e3),
           horizon=st.integers(min_value=1, max_value=120))
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_reference_anywhere(self, family_k5, cert_k5, a,
                                               alpha, b0_scale, horizon):
        cert = dataclasses.replace(cert_k5, b0=cert_k5.b0 * b0_scale)
        rep = cm.collet_eckmann_check(family_k5, a, cert, alpha=alpha,
                                      horizon=horizon)
        want = ref.collet_eckmann_check(family_k5, a, cert, alpha=alpha,
                                        horizon=horizon)
        assert json.dumps(rep.to_report()) == json.dumps(want.to_report())
