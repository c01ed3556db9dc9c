"""Strict YAML run configuration.

A config file is a single YAML document with a `model` block, a
`perturbation` block, and one optional block per command carrying that
command's options.  Unknown keys are rejected everywhere; physical
parameters have no silent defaults.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import yaml

from .model import (CylinderFunction, ModelParams, Perturbation, TrigPoly,
                    named_profile)

MODEL_KEYS = {"c1", "e1", "omega1", "c2", "e2", "omega2", "xi", "lambda"}
TOP_KEYS = {"model", "perturbation", "seed", "iterate", "lyapunov", "scan",
            "audit", "misiurewicz", "superstable", "rotation",
            "singular_limit"}


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping")
    return node


def _reject_unknown(node: dict, allowed: set, where: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _parse_trig(node, where: str) -> TrigPoly:
    node = _require_mapping(node, where)
    _reject_unknown(node, {"constant", "terms"}, where)
    terms = []
    for t in node.get("terms", []):
        if not (isinstance(t, (list, tuple)) and len(t) == 3):
            raise ConfigError(f"{where}.terms entries must be "
                              "[harmonic, cos_coeff, sin_coeff]")
        terms.append((int(t[0]), float(t[1]), float(t[2])))
    return TrigPoly(float(node.get("constant", 0.0)), tuple(terms))


def _parse_profile(node, where: str) -> CylinderFunction:
    node = _require_mapping(node, where)
    if "family" in node:
        kw = {k: v for k, v in node.items() if k != "family"}
        return named_profile(node["family"], **kw)
    _reject_unknown(node, {"trig", "slope"}, where)
    if "trig" not in node:
        raise ConfigError(f"{where} needs either 'family' or 'trig'")
    base = _parse_trig(node["trig"], f"{where}.trig")
    slope = (_parse_trig(node["slope"], f"{where}.slope")
             if "slope" in node else None)
    return CylinderFunction(base, slope)


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    pert: Perturbation
    seed: int
    options: dict = field(default_factory=dict)  # per-command option blocks
    raw: str = ""                                # resolved YAML text

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.raw.encode()).hexdigest()

    def command_options(self, command: str, allowed: set) -> dict:
        node = self.options.get(command, {})
        node = _require_mapping(node, command) if node else {}
        _reject_unknown(node, allowed, command)
        return node


def parse_config(text: str) -> RunConfig:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"YAML parse error: {exc}") from exc
    doc = _require_mapping(doc if doc is not None else {}, "document")
    _reject_unknown(doc, TOP_KEYS, "document")
    if "model" not in doc or "perturbation" not in doc:
        raise ConfigError("config needs 'model' and 'perturbation' blocks")

    m = _require_mapping(doc["model"], "model")
    _reject_unknown(m, MODEL_KEYS, "model")
    missing = MODEL_KEYS - set(m)
    if missing:
        raise ConfigError(f"model block missing keys: {sorted(missing)}")
    params = ModelParams(c1=float(m["c1"]), e1=float(m["e1"]),
                         omega1=float(m["omega1"]), c2=float(m["c2"]),
                         e2=float(m["e2"]), omega2=float(m["omega2"]),
                         xi=float(m["xi"]), lam=float(m["lambda"]))

    p = _require_mapping(doc["perturbation"], "perturbation")
    _reject_unknown(p, {"phi1", "phi2", "epsilon"}, "perturbation")
    if "phi1" not in p or "phi2" not in p:
        raise ConfigError("perturbation needs 'phi1' and 'phi2'")
    pert = Perturbation(phi1=_parse_profile(p["phi1"], "perturbation.phi1"),
                        phi2=_parse_profile(p["phi2"], "perturbation.phi2"),
                        epsilon=float(p.get("epsilon", 1.0)))
    pert.validate()

    seed = int(doc.get("seed", 0))
    options = {k: v for k, v in doc.items()
               if k not in ("model", "perturbation", "seed")}
    resolved = yaml.safe_dump(doc, sort_keys=True)
    return RunConfig(params=params, pert=pert, seed=seed, options=options,
                     raw=resolved)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
