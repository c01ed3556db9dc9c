"""Rank-one hypothesis audit for a configured model.

Runs the seven-part hypothesis suite (regularity / singular limit /
C3-convergence / expanding parameter / parameter transversality /
nondegeneracy at turns / mixing) against a model and perturbation, and
consolidates the evidence into a single report.  Verdicts are numerical
evidence at recorded horizons, never proofs; the transversality check in
particular is only a finite-horizon proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import circlemap as cm
from .circlemap import abundance_accepts_lambda0  # noqa: F401  (re-exported)
from .model import (TWO_PI, ModelParams, Perturbation, _batch_constants,
                    step_batch, wrap_angle, wrap_angles)
from .orbits import Budget, classify_batch

DEFAULT_THRESHOLDS = {
    "h1_ratio_cap": 1e3,
    "h1_det_floor": 1e-300,
    "h2h3_final_tol": 1e-3,
    "h4_delta0": 0.05,
    "h4_horizon": 50,
    "h5_margin": 1e-3,
    "h5_fd_step": 1e-4,
    "h6_step": 1e-6,
    "h6_floor": 1e-6,
    "h7_primitive_cap": 64,
}


@dataclass
class HypothesisVerdict:
    name: str
    status: str               # PASS / FAIL / INCONCLUSIVE
    evidence: dict = field(default_factory=dict)
    proxy: bool = False

    def to_dict(self) -> dict:
        d = {"name": self.name, "status": self.status, "evidence": self.evidence}
        if self.proxy:
            d["proxy"] = True
        return d


@dataclass
class HypothesisAudit:
    verdicts: list[HypothesisVerdict]
    thresholds: dict
    provenance: dict = field(default_factory=dict)

    @property
    def overall(self) -> str:
        statuses = [v.status for v in self.verdicts]
        if all(s == "PASS" for s in statuses):
            return "numerically supported"
        if any(s == "FAIL" for s in statuses):
            return "FAIL"
        return "INCONCLUSIVE"

    def to_report(self) -> dict:
        return {
            "kind": "hypothesis-audit",
            "overall": self.overall,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "thresholds": self.thresholds,
            "provenance": self.provenance,
        }


def _thresholds(overrides: dict | None) -> dict:
    t = dict(DEFAULT_THRESHOLDS)
    if overrides:
        unknown = set(overrides) - set(t)
        if unknown:
            raise ValueError(f"unknown threshold keys: {sorted(unknown)}")
        t.update(overrides)
    return t


def audit_H1(params: ModelParams, pert: Perturbation,
             lam_range=(1e-4, 1e-2), sample_size: int = 2000,
             seed: int = 0, thresholds: dict | None = None) -> HypothesisVerdict:
    """Determinant-ratio bound and an injectivity spot-check.

    Samples |det DF| over random (x, y, lam) in one step_batch call; PASS
    iff max/min stays under the configured cap, with k = sqrt(max/min)
    reported.  A determinant at or below the floor, or a sample off the
    return domain (y + lam*Phi2 <= 0), is a FAIL witnessed by the first such
    sample drawn.  The injectivity check looks for distinct sample points
    with nearly equal images.
    """
    t = _thresholds(thresholds)
    rng = np.random.default_rng(seed)
    lams = np.exp(rng.uniform(math.log(lam_range[0]), math.log(lam_range[1]),
                              sample_size))
    xs, ybars = rng.uniform((0.0, 0.0), (TWO_PI, 1.0), (sample_size, 2)).T
    consts = _batch_constants(params, pert)
    _, new_y, j11, j12, j21, j22, alive = step_batch(
        xs, lams * ybars, lams, params.k_omega, consts)
    dets = np.abs(j11 * j22 - j12 * j21)
    # a dead sample with Y = y + lam*Phi2 > 0 has an image height above 1;
    # step_batch evaluates one with Y <= 0 at Y = 1, an image height of 1
    degenerate = (dets <= t["h1_det_floor"]) | (~alive & (new_y <= 1.0))
    if degenerate.any():
        i = int(np.argmax(degenerate))
        return HypothesisVerdict(
            "H1", "FAIL",
            {"reason": "degenerate determinant",
             "witness": {"x": float(xs[i]), "ybar": float(ybars[i]),
                         "lambda": float(lams[i])}})
    # normalize out the lambda^(delta-1) volume factor so the ratio
    # measures the point-dependence, not the lambda scale
    dets /= lams ** (params.delta - 1.0)
    ratio = float(dets.max() / dets.min())
    k = math.sqrt(ratio)
    # largest sampled lambda at which the running ratio still met the cap
    order_lam = np.argsort(lams)
    run_max = np.maximum.accumulate(dets[order_lam])
    run_min = np.minimum.accumulate(dets[order_lam])
    held = (run_max / run_min) <= t["h1_ratio_cap"]
    lam_held = float(lams[order_lam][held][-1]) if held.any() else None

    # injectivity spot-check at a fixed lam in the middle of the range
    lam_mid = math.sqrt(lam_range[0] * lam_range[1])
    n_inj = min(sample_size * 5, 10_000)
    xs = rng.uniform(0.0, TWO_PI, n_inj)
    ybars = rng.uniform(0.1, 1.0, n_inj)
    new_x, new_y, *_, alive = step_batch(xs, lam_mid * ybars, lam_mid,
                                         params.k_omega, consts)
    images = np.column_stack((wrap_angles(new_x),
                              new_y / lam_mid ** params.delta))
    images[~alive] = np.nan  # escaped points are never near anything
    order = np.lexsort((images[:, 1], images[:, 0]))
    a, b = order[:-1], order[1:]
    near = np.abs(images[a] - images[b]).sum(axis=1) <= 1e-12
    a, b = a[near], b[near]
    src = (np.abs(wrap_angles(xs[a] - xs[b] + math.pi) - math.pi)
           + np.abs(ybars[a] - ybars[b]))
    collisions = int(np.count_nonzero(src > 1e-9))
    ok = ratio <= t["h1_ratio_cap"] and collisions == 0
    return HypothesisVerdict("H1", "PASS" if ok else "FAIL",
                             {"k": k, "det_ratio": ratio,
                              "ratio_cap": t["h1_ratio_cap"],
                              "injectivity_collisions": collisions,
                              "lambda_max_checked": float(lams.max()),
                              "largest_lambda_cap_held": lam_held,
                              "samples": sample_size})


def audit_H2_H3(params: ModelParams, pert: Perturbation, a: float = 1.0,
                n_range: range = range(3, 13),
                thresholds: dict | None = None) -> HypothesisVerdict:
    """Existence of and C3-style convergence to the one-dimensional limit.

    PASS iff the error tables (values, first and second differences) are
    eventually monotone decreasing in n and the final row is below tolerance.
    """
    t = _thresholds(thresholds)
    rows = cm.singular_limit_convergence(params, pert, a, n_range)
    tables = {
        "value": [r.value_err for r in rows],
        "d1": [r.d1_err for r in rows],
        "d2": [r.d2_err for r in rows],
        "second_component": [r.second_comp_err for r in rows],
    }
    def eventually_decreasing(seq, start=1):
        return all(seq[i + 1] <= seq[i] for i in range(start, len(seq) - 1))
    mono = {k: eventually_decreasing(v) for k, v in tables.items()}
    final_ok = all(v[-1] <= t["h2h3_final_tol"] for v in tables.values())
    ok = all(mono.values()) and final_ok
    return HypothesisVerdict(
        "H2H3", "PASS" if ok else "FAIL",
        {"a": a, "n_range": [n_range.start, n_range.stop],
         "monotone": mono, "final_errors": {k: v[-1] for k, v in tables.items()},
         "final_tol": t["h2h3_final_tol"],
         "table": [{"n": r.n, "lambda": r.lam, "value": r.value_err,
                    "d1": r.d1_err, "d2": r.d2_err,
                    "second": r.second_comp_err, "excluded": r.excluded}
                   for r in rows]})


def audit_H4(family: cm.CircleMapFamily, a_window=(0.0, TWO_PI),
             n_a: int = 256, thresholds: dict | None = None,
             seed: int = 0) -> HypothesisVerdict:
    """Scan the window for parameters passing the Misiurewicz check."""
    t = _thresholds(thresholds)
    crit = family.critical_set
    if crit.q == 0:
        return HypothesisVerdict(
            "H4", "FAIL",
            {"reason": "diffeomorphism regime - increase K_omega",
             "critical_points": 0})
    certs = cm.misiurewicz_scan(
        family, np.linspace(a_window[0], a_window[1], n_a, endpoint=False),
        delta0=t["h4_delta0"], horizon=t["h4_horizon"], seed=seed)
    passing = [{"a": float(c.a), "lambda0": c.lambda0, "b0": c.b0}
               for c in certs if c.passed]
    return HypothesisVerdict(
        "H4", "PASS" if passing else "FAIL",
        {"passing": passing, "scanned": n_a, "delta0": t["h4_delta0"],
         "horizon": t["h4_horizon"], "critical_points": crit.q})


def audit_H5_proxy(family: cm.CircleMapFamily, a_star: float,
                   horizon: int = 12, delta0: float = 0.05,
                   thresholds: dict | None = None) -> HypothesisVerdict:
    """Finite-horizon transversality proxy at a_star (never proof-grade).

    Compares d/da of h_a(c) against d/da of the continuation p(a) of the
    critical value, where p(a) is tracked by matching the branch itinerary
    of the reference orbit over the horizon.  The first derivative
    is exactly 1 (a enters additively); the margin is |1 - dp/da|.
    INCONCLUSIVE when the reference orbit passes within delta0/2 of the
    critical set (continuation ambiguous).
    """
    t = _thresholds(thresholds)
    crit = family.critical_set
    if crit.q == 0:
        return HypothesisVerdict("H5", "FAIL",
                                 {"reason": "no critical points"},
                                 proxy=True)
    c = float(crit.points[0])
    v_star = family.val(a_star, c)
    # continuation ambiguity check along the reference orbit
    x = v_star
    for n in range(horizon):
        if crit.distance(x) < delta0 / 2.0:
            return HypothesisVerdict(
                "H5", "INCONCLUSIVE",
                {"reason": "orbit within delta0/2 of the critical set",
                 "n": n + 1, "distance": float(crit.distance(x))},
                proxy=True)
        x = family.val(a_star, x)
    # monotone branch (between consecutive starts) of each orbit point
    starts = np.append(crit.points, crit.points[0] + TWO_PI)
    itinerary = []
    x = v_star
    for _ in range(horizon):
        xc = wrap_angle(x)
        xb = xc if xc >= starts[0] else xc + TWO_PI
        itinerary.append(int(np.searchsorted(starts, xb, side="right")) - 1)
        x = family.lift(a_star, xc)

    def p_of_a(a: float) -> float:
        """Backward-nested continuation of v_star with the same itinerary."""
        # forward endpoint: follow the orbit of the continued critical value;
        # solve backwards so each preimage stays on the recorded branch
        target = family.val(a, c)
        for _ in range(horizon - 1):
            target = family.val(a, target)
        for branch in reversed(itinerary[1:]):
            lo = float(starts[branch])
            hi = float(starts[branch + 1])
            goal = wrap_angle(target)
            # monotone branch: bisection on g(x) = wrap(lift(x)) - goal
            glo = wrap_angle(family.lift(a, lo)) - goal
            llo, lhi = lo, hi - 1e-12
            for _ in range(60):
                mid = 0.5 * (llo + lhi)
                gm = wrap_angle(family.lift(a, mid)) - goal
                if (glo <= 0.0) == (gm <= 0.0):
                    llo, glo = mid, gm
                else:
                    lhi = mid
            target = 0.5 * (llo + lhi)
        return target

    h = t["h5_fd_step"]
    dpda = (p_of_a(a_star + h) - p_of_a(a_star - h)) / (2.0 * h)
    margin = abs(1.0 - dpda)
    ok = margin > t["h5_margin"]
    return HypothesisVerdict(
        "H5", "PASS" if ok else "FAIL",
        {"margin": margin, "dh_da": 1.0, "dp_da": float(dpda),
         "threshold": t["h5_margin"], "horizon": horizon,
         "note": "finite-horizon continuation proxy - not a proof"},
        proxy=True)


def audit_H6(params: ModelParams, pert: Perturbation,
             crit: cm.CriticalSet, a: float = 0.0,
             thresholds: dict | None = None) -> HypothesisVerdict:
    """Height-derivative of the limit family's first component at each turn.

    Central differences (in ybar, at ybar = 0) of the extended limit map;
    PASS iff every magnitude exceeds the configured floor.
    """
    t = _thresholds(thresholds)
    if crit.q == 0:
        return HypothesisVerdict("H6", "FAIL", {"reason": "no critical points"})
    h = t["h6_step"]
    values = []
    for c in crit.points:
        f = lambda yb: cm.limit_extension_value(params, pert, a, float(c), yb)
        d = (f(h) - f(-h)) / (2.0 * h)
        values.append(float(d))
    ok = all(abs(v) > t["h6_floor"] for v in values)
    return HypothesisVerdict("H6", "PASS" if ok else "FAIL",
                             {"derivatives": values, "floor": t["h6_floor"],
                              "step": h})


def audit_H7(family: cm.CircleMapFamily, a_star: float, lambda0: float,
             thresholds: dict | None = None) -> HypothesisVerdict:
    """Expansion threshold exp(lambda0/3) > 2 plus transition primitivity."""
    t = _thresholds(thresholds)
    part_a = h7_accepts_lambda0(lambda0)
    try:
        part = cm.monotonicity_partition(family)
        tm = cm.transition_matrix(family, a_star, part,
                                  primitive_cap=t["h7_primitive_cap"])
        part_b = tm.primitive
        evidence = {"lambda0": lambda0,
                    "exp_lambda0_3": math.exp(lambda0 / 3.0),
                    "primitive": part_b, "primitive_N": tm.primitive_n,
                    "matrix": tm.q.tolist()}
    except cm.EmptyCriticalSetError:
        part_b = False
        evidence = {"lambda0": lambda0, "reason": "no partition"}
    ok = part_a and part_b
    return HypothesisVerdict("H7", "PASS" if ok else "FAIL", evidence)


def h7_accepts_lambda0(lambda0: float) -> bool:
    """Expansion-threshold arithmetic for the mixing hypothesis."""
    return math.exp(lambda0 / 3.0) > 2.0


def strange_attractor_fraction(params: ModelParams, pert: Perturbation,
                               r: float, samples: int = 100, seed: int = 0,
                               budget: Budget | None = None) -> dict:
    """Fraction of lambda in (0, r] classified with a positive top exponent.

    Returns the point estimate with a normal-approximation binomial interval
    and the escape fraction reported separately.  Numerical analogue of a
    density statement, not a measure-theoretic result.
    """
    if samples < 100:
        raise ValueError("need samples >= 100")
    if budget is None:
        budget = Budget(n_iter=20_000, burn_in=2_000)
    rng = np.random.default_rng(seed)
    lams = rng.uniform(0.0, r, samples)
    lams = np.where(lams <= 0.0, r * 0.5, lams)
    positive = 0
    escaped = 0
    for cell in classify_batch(lams, [params.k_omega] * samples, params, pert,
                               budget):
        if cell.label == "Escaped":
            escaped += 1
        elif cell.label == "StrangeAttractorCandidate":
            positive += 1
    usable = samples - escaped
    frac = positive / usable if usable else math.nan
    if usable:
        se = math.sqrt(max(frac * (1.0 - frac), 0.0) / usable)
        ci = (max(0.0, frac - 1.96 * se), min(1.0, frac + 1.96 * se))
    else:
        ci = (math.nan, math.nan)
    return {"fraction": frac, "confidence_interval": ci,
            "escaped_fraction": escaped / samples, "samples": samples,
            "r": r, "seed": seed}


def run_audit(params: ModelParams, pert: Perturbation,
              a_window=(0.0, TWO_PI), n_a: int = 64,
              lam_range=(1e-4, 1e-2), seed: int = 0,
              thresholds: dict | None = None) -> HypothesisAudit:
    """Full H1-H7 audit with a fixed verdict ordering."""
    t = _thresholds(thresholds)
    family = cm.family_from_model(params, pert)
    v1 = audit_H1(params, pert, lam_range=lam_range, seed=seed, thresholds=t)
    v23 = audit_H2_H3(params, pert, thresholds=t)
    v4 = audit_H4(family, a_window=a_window, n_a=n_a, thresholds=t, seed=seed)
    if v4.status == "PASS" and v4.evidence["passing"]:
        best = max(v4.evidence["passing"], key=lambda e: e["lambda0"])
        a_star, lambda0 = best["a"], best["lambda0"]
        v5 = audit_H5_proxy(family, a_star, delta0=t["h4_delta0"],
                            thresholds=t)
        v7 = audit_H7(family, a_star, lambda0, thresholds=t)
    else:
        v5 = HypothesisVerdict("H5", "INCONCLUSIVE",
                               {"reason": "no expanding parameter found"},
                               proxy=True)
        v7 = HypothesisVerdict("H7", "FAIL",
                               {"reason": "no expanding parameter found"})
    v6 = audit_H6(params, pert, family.critical_set, thresholds=t)
    return HypothesisAudit(
        verdicts=[v1, v23, v4, v5, v6, v7],
        thresholds=t,
        provenance={"k_omega": params.k_omega, "xi": params.xi,
                    "a_window": list(a_window), "n_a": n_a,
                    "lam_range": list(lam_range), "seed": seed})
