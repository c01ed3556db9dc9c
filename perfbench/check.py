"""Correctness check of one CLI call's outputs against recorded references.

References were recorded from the program's own outputs (see
record_references.py) for every input variant.  Parsed values are compared,
never bytes, so provenance lines and float formatting do not matter.
"""

from __future__ import annotations

import csv
import json
import math
import os

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")

# acceptance-10 bound on |chi1 + chi2 - mean ln|det||
DET_CONSISTENCY_MAX = 1e-2


def load_references(path: str = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse_scan(out_dir: str) -> dict:
    """Cells of scan.csv as [lambda, K, label, period] plus boundaries.ordered."""
    with open(os.path.join(out_dir, "scan.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))
    cells = [[float(r["lambda"]), float(r["K_omega"]), r["label"],
              int(r["period"]) if r["period"] else None] for r in rows]
    ordered = _read_json(os.path.join(out_dir, "boundaries.json"))["ordered"]
    return {"cells": cells, "ordered": ordered}


def parse_audit(out_dir: str) -> dict:
    """H-verdict statuses by name and the H4 passing count."""
    report = _read_json(os.path.join(out_dir, "audit.json"))
    statuses = {v["name"]: v["status"] for v in report["verdicts"]}
    h4 = next(v for v in report["verdicts"] if v["name"] == "H4")
    return {"statuses": statuses,
            "h4_passing": len(h4["evidence"].get("passing", []))}


def parse_lyapunov(out_dir: str) -> dict:
    est = _read_json(os.path.join(out_dir, "lyapunov.json"))
    return {key: est[key] for key in
            ("chi1", "chi2", "det_consistency", "inconclusive", "n_iter")}


PARSERS = {"scan_grid": parse_scan, "audit_k5": parse_audit,
           "lyapunov_long": parse_lyapunov}


def compare(workload: str, got: dict, refs: dict, variant: int) -> list[str]:
    """Differences between parsed outputs and the reference; empty if correct."""
    if workload == "scan_grid":
        ref = refs["scan_grid"]
        errors = []
        if len(got["cells"]) != len(ref["cells"]):
            errors.append(f"{len(got['cells'])} cells, expected "
                          f"{len(ref['cells'])}")
        for g, r in zip(got["cells"], ref["cells"]):
            if g != r:
                errors.append(f"cell {g} expected {r}")
        if got["ordered"] is not ref["ordered"]:
            errors.append(f"ordered={got['ordered']}, expected {ref['ordered']}")
        return errors
    if workload == "audit_k5":
        ref = refs["audit_k5"][str(variant)]
        errors = [f"{name}: {got['statuses'].get(name)}, expected {status}"
                  for name, status in ref["statuses"].items()
                  if got["statuses"].get(name) != status]
        if set(got["statuses"]) != set(ref["statuses"]):
            errors.append(f"verdicts {sorted(got['statuses'])}, expected "
                          f"{sorted(ref['statuses'])}")
        if got["h4_passing"] != ref["h4_passing"]:
            errors.append(f"H4 passing {got['h4_passing']}, expected "
                          f"{ref['h4_passing']}")
        return errors
    if workload == "lyapunov_long":
        ref = refs["lyapunov_long"][str(variant)]
        tol = refs["lyapunov_long"]["chi1_tolerance"]
        errors = []
        if got["inconclusive"]:
            errors.append("inconclusive estimate")
        cons = got["det_consistency"]
        if cons is None or not cons < DET_CONSISTENCY_MAX:
            errors.append(f"det_consistency {cons} not below "
                          f"{DET_CONSISTENCY_MAX}")
        chi1 = got["chi1"]
        if chi1 is None or not math.isfinite(chi1) \
                or abs(chi1 - ref["chi1"]) > tol:
            errors.append(f"chi1 {chi1} outside {ref['chi1']} +- {tol}")
        return errors
    raise KeyError(workload)


def check_outputs(workload: str, out_dir: str, refs: dict,
                  variant: int) -> list[str]:
    """Parse a call's outputs and compare; unreadable outputs are errors."""
    try:
        got = PARSERS[workload](out_dir)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"]
    return compare(workload, got, refs, variant)
