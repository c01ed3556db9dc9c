"""Batch command-line front end.

Every command reads a strict YAML config and returns its outputs as
{file name: payload}; `main` then writes them (CSV/JSON/SVG) under the
output directory with an embedded provenance block.  Options the config
leaves out take the library's defaults.  Exit codes: 0 on success, 1 on
validation errors, 2 on computation failures; a failed command writes
nothing.  All randomness is seeded from the config (default seed 0) so
outputs are byte-identical across runs; `--threads` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, audit as au, circlemap as cm, orbits as ob, svgplot
from .config import ConfigError, RunConfig, load_config
from .model import (TWO_PI, CylinderPoint, EscapeError, InvalidParamsError,
                    MorseError)


class ComputationError(RuntimeError):
    pass


def _prov_comment(cfg: RunConfig, seed: int) -> str:
    return (f"# bykovlab {__version__}\n"
            f"# config sha256: {cfg.sha256}\n"
            f"# seed: {seed}\n")


def _svg_provenance(cfg: RunConfig, seed: int) -> str:
    return _prov_comment(cfg, seed).replace("\n", " ")


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _write(path: str, payload, cfg: RunConfig, seed: int) -> None:
    """Write one command output with its provenance.

    A dict becomes JSON with the run's provenance merged into its
    `provenance` block, a (header, rows) pair becomes CSV under provenance
    comments, and a str is SVG whose provenance was set when it was drawn.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if isinstance(payload, dict):
            prov = {**payload.get("provenance", {}), "tool": "bykovlab",
                    "version": __version__, "config_sha256": cfg.sha256,
                    "seed": seed}
            json.dump({**payload, "provenance": prov}, fh, indent=2,
                      sort_keys=True, default=_json_default)
            fh.write("\n")
        elif isinstance(payload, tuple):
            header, rows = payload
            fh.write(_prov_comment(cfg, seed))
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
        else:
            fh.write(payload)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _floats(values) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"expected a list of numbers, got {values!r}")
    return tuple(float(v) for v in values)


def _pair(values) -> tuple:
    """Exactly two floats: a window (lo, hi)."""
    out = _floats(values)
    if len(out) != 2:
        raise ConfigError(f"expected two numbers, got {values!r}")
    return out


def _mapping(values) -> dict | None:
    if values is not None and not isinstance(values, dict):
        raise ConfigError(f"expected a mapping, got {values!r}")
    return values


def _given(opt: dict, types: dict) -> dict:
    """The options named in `types` that the config sets, each converted.

    Options left out are not passed on, so the library's defaults apply.  A
    value of the wrong shape is a ConfigError that names its option.
    """
    out = {}
    for key, conv in types.items():
        if key in opt:
            try:
                out[key] = conv(opt[key])
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from None
    return out


def _start_point(cfg: RunConfig, opt: dict) -> CylinderPoint:
    return CylinderPoint(float(opt.get("x0", 0.5)),
                         float(opt.get("y0", max(cfg.params.lam, 1e-6))))


# ---------------------------------------------------------------------------
# Commands: each returns {file name: payload} and writes nothing
# ---------------------------------------------------------------------------

def cmd_iterate(cfg: RunConfig, seed: int) -> dict:
    opt = cfg.command_options("iterate", {"n", "burn_in", "x0", "y0", "plot"})
    orbit = ob.iterate(cfg.params, cfg.pert, _start_point(cfg, opt),
                       int(opt.get("n", 1000)),
                       **_given(opt, {"burn_in": int}))
    outputs = {"orbit.csv": (("iterate", "x", "y"),
                             [(i, _fmt(x), _fmt(y))
                              for i, (x, y) in enumerate(orbit.points)])}
    if opt.get("plot", True) and len(orbit.points):
        outputs["orbit.svg"] = svgplot.orbit_scatter_svg(
            orbit.points, provenance=_svg_provenance(cfg, seed),
            title=f"orbit lambda={cfg.params.lam:g} K={cfg.params.k_omega:g}"
                  + (" (escaped)" if orbit.escaped else ""))
    return outputs


def cmd_lyapunov(cfg: RunConfig, seed: int) -> dict:
    opt = cfg.command_options("lyapunov", {"n", "burn_in", "x0", "y0",
                                           "cadence"})
    est = ob.lyapunov(cfg.params, cfg.pert, _start_point(cfg, opt),
                      int(opt.get("n", 100_000)),
                      **_given(opt, {"burn_in": int, "cadence": int}))
    return {"lyapunov.json": {
        "kind": "lyapunov-estimate", "chi1": est.chi1, "chi2": est.chi2,
        "saturated": est.saturated, "det_consistency": est.det_consistency,
        "n_iter": est.n_iter, "cadence": est.cadence,
        "inconclusive": est.inconclusive, "escaped_at": est.escaped_at}}


def cmd_scan(cfg: RunConfig, seed: int) -> dict:
    budget = {"n_iter": int, "burn_in": int, "chi_thresh": float,
              "curve_thresh": float}
    opt = cfg.command_options("scan", {"lambda_grid", "k_omega_grid", "plot",
                                       *budget})
    if "lambda_grid" not in opt or "k_omega_grid" not in opt:
        raise ConfigError("scan needs 'lambda_grid' and 'k_omega_grid'")
    grids = _given(opt, {"lambda_grid": _floats, "k_omega_grid": _floats})
    result = ob.scan(grids["lambda_grid"], grids["k_omega_grid"],
                     cfg.params, cfg.pert, ob.Budget(**_given(opt, budget)))
    outputs = {"scan.csv": (ob.SCAN_CSV_COLUMNS, ob.scan_rows(result))}
    if opt.get("plot", True):
        outputs["regime_map.svg"] = svgplot.regime_map_svg(
            result, provenance=_svg_provenance(cfg, seed))
    outputs["boundaries.json"] = {
        "kind": "scan-boundaries",
        "t2_hat": {str(k): v for k, v in result.t2_hat.items()},
        "t1_hat": {str(k): v for k, v in result.t1_hat.items()},
        "ordered": result.ordered}
    return outputs


def cmd_audit(cfg: RunConfig, seed: int) -> dict:
    opt = cfg.command_options("audit", {"n_a", "a_window", "lambda_range",
                                        "thresholds"})
    kw = _given(opt, {"n_a": int, "a_window": _pair, "lambda_range": _pair,
                      "thresholds": _mapping})
    if "lambda_range" in kw:
        kw["lam_range"] = kw.pop("lambda_range")
    report = au.run_audit(cfg.params, cfg.pert, seed=seed, **kw)
    return {"audit.json": report.to_report()}


def cmd_misiurewicz(cfg: RunConfig, seed: int) -> dict:
    opt = cfg.command_options("misiurewicz", {"a", "delta0", "horizon",
                                              "n_seeds"})
    cert = cm.misiurewicz_check(
        cm.family_from_model(cfg.params, cfg.pert), float(opt.get("a", 0.0)),
        seed=seed,
        **_given(opt, {"delta0": float, "horizon": int, "n_seeds": int}))
    return {"certificate.json": cert.to_report()}


def cmd_superstable(cfg: RunConfig, seed: int) -> dict:
    opt = cfg.command_options("superstable", {"period", "a_window",
                                              "n_lambdas"})
    period = int(opt.get("period", 2))
    window = _given(opt, {"a_window": _pair}).get("a_window", (0.0, TWO_PI))
    orbits = cm.superstable_search(cm.family_from_model(cfg.params, cfg.pert),
                                   period, a_window=window,
                                   **_given(opt, {"n_lambdas": int}))
    return {"superstable.json": {
        "kind": "superstable-orbits", "period": period,
        "a_window": list(window),
        "orbits": [{"a_star": s.a_star, "critical_point": s.critical_point,
                    "winding": s.winding, "residual": s.residual,
                    "deriv_residual": s.deriv_residual,
                    "lambdas": list(s.lambdas)} for s in orbits]}}


def cmd_rotation(cfg: RunConfig, seed: int) -> dict:
    opt = cfg.command_options("rotation", {"a", "n_iter", "n_seeds", "mode"})
    mode = opt.get("mode", "circle")
    if mode == "circle":
        ri = cm.rotation_interval(
            cm.family_from_model(cfg.params, cfg.pert),
            float(opt.get("a", 0.0)),
            **_given(opt, {"n_iter": int, "n_seeds": int}))
        payload = {"kind": "rotation-interval", "mode": "circle",
                   "rho_min": ri.rho_min, "rho_max": ri.rho_max,
                   "error": ri.error, "degenerate": ri.degenerate}
    elif mode == "annulus":
        n = int(opt.get("n_iter", 2000))
        seeds = [CylinderPoint(x, cfg.params.lam)
                 for x in np.linspace(0.0, TWO_PI,
                                      int(opt.get("n_seeds", 16)),
                                      endpoint=False)]
        try:
            lo, hi = ob.rotation_set_2d(cfg.params, cfg.pert, seeds, n)
        except EscapeError:
            raise ComputationError("all rotation seeds escaped")
        payload = {"kind": "rotation-interval", "mode": "annulus",
                   "rho_min": lo, "rho_max": hi, "error": 1.0 / n,
                   "degenerate": (hi - lo) <= 2.0 / n}
    else:
        raise ConfigError(f"unknown rotation mode: {mode!r}")
    return {"rotation.json": payload}


def cmd_singular_limit(cfg: RunConfig, seed: int) -> dict:
    opt = cfg.command_options("singular_limit", {"a", "n_min", "n_max", "nx",
                                                 "ny"})
    rows = cm.singular_limit_convergence(
        cfg.params, cfg.pert, float(opt.get("a", 0.0)),
        range(int(opt.get("n_min", 3)), int(opt.get("n_max", 12)) + 1),
        **_given(opt, {"nx": int, "ny": int}))
    return {"singular_limit.csv": (
        ("n", "lambda", "value_err", "d1_err", "d2_err", "second_comp_err",
         "excluded"),
        [(r.n, _fmt(r.lam), _fmt(r.value_err), _fmt(r.d1_err),
          _fmt(r.d2_err), _fmt(r.second_comp_err), r.excluded)
         for r in rows])}


COMMANDS = {
    "iterate": cmd_iterate,
    "lyapunov": cmd_lyapunov,
    "scan": cmd_scan,
    "audit": cmd_audit,
    "misiurewicz": cmd_misiurewicz,
    "superstable": cmd_superstable,
    "rotation": cmd_rotation,
    "singular-limit": cmd_singular_limit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bykovlab",
        description="Numerical laboratory for a heteroclinic-attractor "
                    "unfolding: return maps, circle-map limits, hypothesis "
                    "audits, regime scans.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: scan classifies its whole "
                            "grid as one lockstep batch in one process")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, InvalidParamsError, MorseError, OSError,
            ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = os.environ.get("BYKOVLAB_OUT", args.out)
    os.makedirs(out, exist_ok=True)
    seed = cfg.seed if args.seed is None else args.seed
    try:
        outputs = COMMANDS[args.command](cfg, seed)
    except (ConfigError, InvalidParamsError, MorseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ComputationError, EscapeError, cm.EmptyCriticalSetError,
            cm.NonMorseError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # an option value the computation rejects (after the subclasses above)
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    for name, payload in outputs.items():
        path = os.path.join(out, name)
        _write(path, payload, cfg, seed)
        if args.verbose:
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
