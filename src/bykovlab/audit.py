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
from .model import TWO_PI, ModelParams, Perturbation, step_batch

H1_SAMPLES = 2000            # audit_H1: determinant samples drawn
H2H3_A = 1.0                 # audit_H2_H3: parameter a of the limit family
H2H3_N_RANGE = range(3, 13)  # audit_H2_H3: the most n of lambda_(a,n)
H5_HORIZON = 12              # audit_H5_proxy: steps of the continued orbit

# the lines every verdict is judged against; audit.json prints them
THRESHOLDS = {
    "h1_ratio_cap": 1e3,
    "h1_det_floor": 1e-300,
    "h2h3_final_tol": 1e-3,
    "h2h3_floor_ulps": 16,
    "h4_delta0": 0.05,
    "h4_horizon": 50,
    "h5_margin": 1e-3,
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
            "thresholds": THRESHOLDS,
            "provenance": self.provenance,
        }


def audit_H1(params: ModelParams, pert: Perturbation,
             lam_range=(1e-4, 1e-2), seed: int = 0) -> HypothesisVerdict:
    """Determinant-ratio bound and a fold check on the signed determinants.

    Samples det DF at H1_SAMPLES random (x, y, lam) in one step_batch call;
    PASS iff max/min of |det DF| stays under h1_ratio_cap, with
    k = sqrt(max/min) reported, and det DF keeps one sign.  Samples of both
    signs mean det DF vanishes between them: a fold, where the map is not a
    diffeomorphism onto its image.  A determinant at or below the floor, or
    a sample off the return domain (y + lam*Phi2 <= 0), is a FAIL witnessed
    by the first such sample drawn.  Raises ValueError, naming
    lambda_range, unless 0 < low <= high.
    """
    lo, hi = lam_range
    if not 0.0 < lo <= hi:
        raise ValueError(
            f"lambda_range needs 0 < low <= high, got [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    lams = np.exp(rng.uniform(math.log(lo), math.log(hi), H1_SAMPLES))
    xs, ybars = rng.uniform((0.0, 0.0), (TWO_PI, 1.0), (H1_SAMPLES, 2)).T
    *_, j11, j12, j21, j22, big_y = step_batch(
        xs, lams * ybars, lams, params.k_omega, params, pert)
    signed = j11 * j22 - j12 * j21
    dets = np.abs(signed)
    degenerate = (dets <= THRESHOLDS["h1_det_floor"]) | ~(big_y > 0.0)
    if degenerate.any():
        i = int(np.argmax(degenerate))
        return HypothesisVerdict(
            "H1", "FAIL",
            {"reason": "degenerate determinant",
             "witness": {"x": float(xs[i]), "ybar": float(ybars[i]),
                         "lambda": float(lams[i])}})
    negative = int(np.count_nonzero(signed < 0.0))
    # normalize out the lambda^(delta-1) volume factor so the ratio
    # measures the point-dependence, not the lambda scale
    dets /= lams ** (params.delta - 1.0)
    ratio = float(dets.max() / dets.min())
    # largest sampled lambda at which the running ratio still met the cap
    order_lam = np.argsort(lams)
    run_max = np.maximum.accumulate(dets[order_lam])
    run_min = np.minimum.accumulate(dets[order_lam])
    held = (run_max / run_min) <= THRESHOLDS["h1_ratio_cap"]
    lam_held = float(lams[order_lam][held][-1]) if held.any() else None
    ok = (ratio <= THRESHOLDS["h1_ratio_cap"]
          and negative in (0, H1_SAMPLES))
    return HypothesisVerdict("H1", "PASS" if ok else "FAIL",
                             {"k": math.sqrt(ratio), "det_ratio": ratio,
                              "ratio_cap": THRESHOLDS["h1_ratio_cap"],
                              "negative_determinants": negative,
                              "lambda_max_checked": float(lams.max()),
                              "largest_lambda_cap_held": lam_held,
                              "samples": H1_SAMPLES})


def audit_H2_H3(params: ModelParams, pert: Perturbation) -> HypothesisVerdict:
    """Convergence of the return map at lambda_(a,n) to (h_a, 0).

    Tabulates the n of H2H3_N_RANGE up to the last whose height scale
    lambda_(a,n)^delta (below the strip scale lambda_(a,n)^(delta-1)) is a
    normal float (cm.normal_strip_range).  On the ybar = 0 edge the kernel's
    angle and j11 differ from h_a and h' by lam*Phi1(x, 0) and
    lam*Phi1_x(x, 0) up to rounding, so each error is
    predicted: lam times the grid max of |Phi1| (|Phi1_x|) of the pair's
    TrigPoly, within a floor of h2h3_floor_ulps ULPs of the largest |lift|
    of h_(a+2*pi*n) (of max |h'|).  FAIL if an error exceeds predicted +
    floor, falls below predicted - floor where the prediction is above the
    floor, or exceeds h2h3_final_tol in the last row; else INCONCLUSIVE if
    fewer than 3 rows have the value predicted above its floor.
    """
    family = cm.family_from_model(params, pert)
    n_range = cm.normal_strip_range(params, H2H3_A, H2H3_N_RANGE)
    rows = (cm.singular_limit_convergence(params, pert, H2H3_A, n_range)
            if n_range else [])
    table = [dict(vars(r)) for r in rows]
    xg = np.linspace(0.0, TWO_PI, cm.LIMIT_GRID[0], endpoint=False)
    lam = np.array([r.lam for r in rows])
    lifted = family.lift(H2H3_A + TWO_PI * np.array(n_range)[:, None], xg)
    peaks = [np.abs(v).max() for v in pert.phi1.section().jet(xg)]
    scales = (np.abs(lifted).max(axis=1), np.abs(family.deriv(xg)).max())
    bounds, outside = {}, []
    for key, peak, scale in zip(("value_err", "d1_err"), peaks, scales):
        err = np.array([t[key] for t in table])
        predicted = lam * peak
        floor = THRESHOLDS["h2h3_floor_ulps"] * np.spacing(scale)
        judged = predicted > floor
        bad = (err > predicted + floor) | (judged & (err < predicted - floor))
        outside += [{"n": r.n, "error": key} for r, b in zip(rows, bad) if b]
        bounds[key] = {"predicted": predicted.tolist(),
                       "floor": floor.tolist(), "judged": int(judged.sum())}
    final = {k: table[-1][k] for k in ("value_err", "d1_err",
                                       "second_comp_err")} if rows else {}
    judged = bounds["value_err"]["judged"]
    evidence = {"a": H2H3_A, "n_range": [n_range.start, n_range.stop],
                "judged_rows": judged, "outside_bounds": outside,
                "bounds": bounds, "final_errors": final,
                "final_tol": THRESHOLDS["h2h3_final_tol"], "table": table}
    if outside or any(v > THRESHOLDS["h2h3_final_tol"]
                      for v in final.values()):
        return HypothesisVerdict("H2H3", "FAIL", evidence)
    if judged < 3:
        evidence["reason"] = (f"value predicted above its floor at {judged} "
                              f"of {len(rows)} rows, fewer than 3")
        return HypothesisVerdict("H2H3", "INCONCLUSIVE", evidence)
    return HypothesisVerdict("H2H3", "PASS", evidence)


def audit_H4(family: cm.CircleMapFamily, a_window=(0.0, TWO_PI),
             n_a: int = 256, seed: int = 0) -> HypothesisVerdict:
    """Scan the window for parameters passing the Misiurewicz check.

    A certificate passes only if (1b) does, and (1b) reads the critical
    orbits alone.  So the critical orbits of the whole grid come first, and
    only the parameters whose orbits keep h4_delta0 from the critical set
    are certified in full (their certificates do not depend on the other
    parameters of the scan).
    """
    if n_a < 1:
        raise ValueError(f"need n_a >= 1, got n_a={n_a}")
    crit = family.critical_set
    if crit.q == 0:
        return HypothesisVerdict(
            "H4", "FAIL",
            {"reason": "diffeomorphism regime - increase K_omega",
             "critical_points": 0})
    delta0, horizon = THRESHOLDS["h4_delta0"], THRESHOLDS["h4_horizon"]
    a_grid = np.linspace(a_window[0], a_window[1], n_a, endpoint=False)
    near = cm.critical_orbit_distances(family, a_grid, horizon) < delta0
    certs = cm.misiurewicz_scan(family, a_grid[~near.any(axis=(1, 2))],
                                delta0=delta0, horizon=horizon, seed=seed)
    passing = [{"a": float(c.a), "lambda0": c.lambda0, "b0": c.b0}
               for c in certs if c.passed]
    return HypothesisVerdict(
        "H4", "PASS" if passing else "FAIL",
        {"passing": passing, "scanned": n_a,
         "delta0": THRESHOLDS["h4_delta0"],
         "horizon": THRESHOLDS["h4_horizon"], "critical_points": crit.q})


def audit_H5_proxy(family: cm.CircleMapFamily,
                   a_star: float) -> HypothesisVerdict:
    """Finite-horizon transversality proxy at a_star (never proof-grade).

    Compares d/da of the critical value h_a(c) with d/da of p(a), the
    continuation of v* = h_{a*}(c) that keeps h_a^(H-1)(p(a)) at the fixed
    target h_{a*}^(H-1)(v*), H = H5_HORIZON.  The first derivative is exactly
    1 (a enters additively); differentiating the target equation gives the
    transversality sum dp/da = -sum_{k=1}^{H-1} 1/(h^k)'(v*) along one orbit
    of v*.  The margin is |1 - dp/da|.  INCONCLUSIVE when the orbit of v*
    passes within delta0/2 of the critical set in H steps (continuation
    ambiguous); delta0 is H4's h4_delta0.
    """
    horizon, delta0 = H5_HORIZON, THRESHOLDS["h4_delta0"]
    crit = family.critical_set
    if crit.q == 0:
        return HypothesisVerdict("H5", "FAIL",
                                 {"reason": "no critical points"},
                                 proxy=True)
    # v* and its next horizon - 1 images
    orbit = family.orbit(a_star, crit.points[0], horizon)[1:]
    dist = crit.distance(orbit)
    near = np.nonzero(dist < delta0 / 2.0)[0]
    if len(near):
        return HypothesisVerdict(
            "H5", "INCONCLUSIVE",
            {"reason": "orbit within delta0/2 of the critical set",
             "n": int(near[0]) + 1, "distance": float(dist[near[0]])},
            proxy=True)
    dpda = -float(np.sum(1.0 / np.cumprod(family.deriv(orbit[:-1]))))
    margin = abs(1.0 - dpda)
    ok = margin > THRESHOLDS["h5_margin"]
    return HypothesisVerdict(
        "H5", "PASS" if ok else "FAIL",
        {"margin": margin, "dh_da": 1.0, "dp_da": dpda,
         "threshold": THRESHOLDS["h5_margin"], "horizon": horizon,
         "note": "finite-horizon continuation proxy - not a proof"},
        proxy=True)


def audit_H6(params: ModelParams, pert: Perturbation,
             crit: cm.CriticalSet) -> HypothesisVerdict:
    """Height-derivative of the limit family's first component at each turn.

    The limit map h_a(x, ybar) = x + xi + a - K ln(ybar + Phi2(x, ybar)) has
    d h_a/d ybar = -K (1 + Phi2_y(c, 0)) / Phi2(c, 0) at ybar = 0, whatever a;
    PASS iff every magnitude exceeds h6_floor.
    """
    if crit.q == 0:
        return HypothesisVerdict("H6", "FAIL", {"reason": "no critical points"})
    phi2 = pert.phi2
    slope = 0.0 if phi2.slope is None else phi2.slope(crit.points)
    values = -params.k_omega * (1.0 + slope) / phi2.base(crit.points)
    ok = bool(np.all(np.abs(values) > THRESHOLDS["h6_floor"]))
    return HypothesisVerdict("H6", "PASS" if ok else "FAIL",
                             {"derivatives": values.tolist(),
                              "floor": THRESHOLDS["h6_floor"]})


def audit_H7(family: cm.CircleMapFamily, a_star: float,
             lambda0: float) -> HypothesisVerdict:
    """Expansion threshold exp(lambda0/3) > 2 plus transition primitivity."""
    part_a = h7_accepts_lambda0(lambda0)
    try:
        part = cm.monotonicity_partition(family)
        tm = cm.transition_matrix(
            family, a_star, part,
            primitive_cap=THRESHOLDS["h7_primitive_cap"])
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


def run_audit(params: ModelParams, pert: Perturbation,
              a_window=(0.0, TWO_PI), n_a: int = 64,
              lam_range=(1e-4, 1e-2), seed: int = 0) -> HypothesisAudit:
    """Full H1-H7 audit with a fixed verdict ordering."""
    family = cm.family_from_model(params, pert)
    v1 = audit_H1(params, pert, lam_range=lam_range, seed=seed)
    v23 = audit_H2_H3(params, pert)
    v4 = audit_H4(family, a_window=a_window, n_a=n_a, seed=seed)
    if v4.status == "PASS" and v4.evidence["passing"]:
        best = max(v4.evidence["passing"], key=lambda e: e["lambda0"])
        a_star, lambda0 = best["a"], best["lambda0"]
        v5 = audit_H5_proxy(family, a_star)
        v7 = audit_H7(family, a_star, lambda0)
    else:
        v5 = HypothesisVerdict("H5", "INCONCLUSIVE",
                               {"reason": "no expanding parameter found"},
                               proxy=True)
        v7 = HypothesisVerdict("H7", "FAIL",
                               {"reason": "no expanding parameter found"})
    v6 = audit_H6(params, pert, family.critical_set)
    return HypothesisAudit(
        verdicts=[v1, v23, v4, v5, v6, v7],
        provenance={"k_omega": params.k_omega, "xi": params.xi,
                    "a_window": list(a_window), "n_a": n_a,
                    "lam_range": list(lam_range), "seed": seed})
