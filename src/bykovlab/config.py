"""Strict YAML run configuration.

A config file is a single YAML document with a `model` block, a
`perturbation` block, an optional `seed` and one optional block per command
carrying that command's options, whose keys and value types `OPTIONS`
lists.  Every block the file contains is checked and converted at load,
whichever command runs; a bad value is a ConfigError naming its key path,
such as `scan.n_iter`.  Unknown keys are rejected everywhere; physical
parameters have no silent defaults.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import yaml

from .model import (CylinderFunction, ModelParams, Perturbation, TrigPoly,
                    named_profile)

MODEL_KEYS = {"c1", "e1", "omega1", "c2", "e2", "omega2", "xi", "lambda"}

# libyaml's safe loader and dumper where PyYAML was built with it: the same
# documents and dumped text as the pure-Python pair, parsed and emitted in C
LOADER, DUMPER = ((yaml.CSafeLoader, yaml.CSafeDumper) if yaml.__with_libyaml__
                  else (yaml.SafeLoader, yaml.SafeDumper))


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


def _float(value) -> float:
    """A finite int, float or numeric string (PyYAML reads 1e-3 as one)."""
    x = math.nan if isinstance(value, bool) else float(value)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def _int(value) -> int:
    """An integral _float: 2000 and 1.0e5 pass, 2.7 and true fail."""
    if type(value) is int:
        return value
    x = _float(value)
    if not x.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(x)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _floats(value) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"expected a list of numbers, got {value!r}")
    return tuple(_float(v) for v in value)


def _pair(value) -> tuple:
    """Exactly two floats: a window (lo, hi)."""
    out = _floats(value)
    if len(out) != 2:
        raise ValueError(f"expected two numbers, got {value!r}")
    return out


def _mode(value) -> str:
    if value not in ("circle", "annulus"):
        raise ValueError(f"expected circle or annulus, got {value!r}")
    return value


OPTIONS = {
    "iterate": {"n": _int, "burn_in": _int, "x0": _float, "y0": _float,
                "plot": _flag},
    "lyapunov": {"n": _int, "burn_in": _int, "x0": _float, "y0": _float},
    "scan": {"lambda_grid": _floats, "k_omega_grid": _floats, "plot": _flag,
             "n_iter": _int, "burn_in": _int},
    "audit": {"n_a": _int, "a_window": _pair, "lambda_range": _pair},
    "misiurewicz": {"a": _float, "delta0": _float, "horizon": _int,
                    "n_seeds": _int},
    "superstable": {"period": _int, "a_window": _pair, "n_lambdas": _int},
    "rotation": {"a": _float, "n_iter": _int, "n_seeds": _int, "mode": _mode},
    "singular_limit": {"a": _float, "n_min": _int, "n_max": _int},
}


def _convert(conv, value, key):
    try:
        return conv(value)
    except ConfigError as exc:  # from a nested block: extend its key path
        raise ConfigError(f"{key}.{exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _block(node, table: dict) -> dict:
    """The mapping `node` (None: empty), each key converted by `table`."""
    node = {} if node is None else node
    if not isinstance(node, dict):
        raise ValueError(f"expected a mapping, got {node!r}")
    unknown = set(node) - set(table)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    return {key: _convert(table[key], value, key)
            for key, value in node.items()}


def _terms(value) -> tuple:
    """A list of [harmonic, cos_coeff, sin_coeff] triples."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of terms, got {value!r}")
    return tuple((_int(k), _float(c), _float(s)) for k, c, s in value)


def _trig(node) -> TrigPoly:
    t = _block(node, {"constant": _float, "terms": _terms})
    return TrigPoly(t.get("constant", 0.0), t.get("terms", ()))


def _profile(node) -> CylinderFunction:
    if isinstance(node, dict) and "family" in node:
        kw = {k: v for k, v in node.items() if k != "family"}
        return named_profile(node["family"],
                             **_block(kw, dict.fromkeys(kw, _float)))
    p = _block(node, {"trig": _trig, "slope": _trig})
    if "trig" not in p:
        raise ValueError("needs either 'family' or 'trig'")
    return CylinderFunction(p["trig"], p.get("slope"))


def _model(node) -> ModelParams:
    m = _block(node, dict.fromkeys(MODEL_KEYS, _float))
    missing = MODEL_KEYS - set(m)
    if missing:
        raise ValueError(f"missing keys {sorted(missing)}")
    return ModelParams(lam=m.pop("lambda"), **m)


def _perturbation(node) -> Perturbation:
    p = _block(node, {"phi1": _profile, "phi2": _profile, "epsilon": _float})
    if "phi1" not in p or "phi2" not in p:
        raise ValueError("needs 'phi1' and 'phi2'")
    pert = Perturbation(**p)
    pert.validate()
    return pert


SECTIONS = {"model": _model, "perturbation": _perturbation, "seed": _int,
            **{block: functools.partial(_block, table=table)
               for block, table in OPTIONS.items()}}


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    pert: Perturbation
    seed: int
    options: dict = field(default_factory=dict)  # OPTIONS block -> converted
    raw: str = ""                                # resolved YAML text

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.raw.encode()).hexdigest()


def parse_config(text: str) -> RunConfig:
    try:
        doc = yaml.load(text, Loader=LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"YAML parse error: {exc}") from exc
    try:
        sections = _block(doc, SECTIONS)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"document: {exc}") from None
    if "model" not in sections or "perturbation" not in sections:
        raise ConfigError("config needs 'model' and 'perturbation' blocks")
    return RunConfig(params=sections["model"], pert=sections["perturbation"],
                     seed=sections.get("seed", 0),
                     options={block: sections.get(block, {})
                              for block in OPTIONS},
                     raw=yaml.dump(doc, Dumper=DUMPER, sort_keys=True))


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
