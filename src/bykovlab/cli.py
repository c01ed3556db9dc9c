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
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__, audit as au, circlemap as cm, orbits as ob, svgplot
from .config import ConfigError, RunConfig, load_config
from .model import TWO_PI, CylinderPoint, EscapeError


class ComputationError(RuntimeError):
    pass


def _prov_comment(cfg: RunConfig, seed: int) -> str:
    return (f"# bykovlab {__version__}\n"
            f"# config sha256: {cfg.sha256}\n"
            f"# seed: {seed}\n")


def _svg_provenance(cfg: RunConfig, seed: int) -> str:
    return _prov_comment(cfg, seed).replace("\n", " ")


def _jsonable(o):
    """o with numpy values as Python ones and non-finite floats as None."""
    if isinstance(o, dict):
        return {k: _jsonable(v) for k, v in o.items()}
    if isinstance(o, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in o]
    if isinstance(o, (float, np.floating)):
        return float(o) if math.isfinite(o) else None
    return o.item() if isinstance(o, np.generic) else o


def _write(path: str, payload, cfg: RunConfig, seed: int) -> None:
    """Write one command output with its provenance.

    A dict becomes strict JSON (a non-finite float is null) with the run's
    provenance merged into its `provenance` block, a (header, rows) pair
    becomes CSV under provenance comments, and a str is SVG whose provenance
    was set when it was drawn.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if isinstance(payload, dict):
            prov = {**payload.get("provenance", {}), "tool": "bykovlab",
                    "version": __version__, "config_sha256": cfg.sha256,
                    "seed": seed}
            json.dump(_jsonable({**payload, "provenance": prov}), fh,
                      indent=2, sort_keys=True, allow_nan=False)
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


def _start_point(cfg: RunConfig, opt: dict) -> CylinderPoint:
    return CylinderPoint(opt.pop("x0", 0.5),
                         opt.pop("y0", max(cfg.params.lam, 1e-6)))


# ---------------------------------------------------------------------------
# Commands: each returns {file name: payload} and writes nothing
# ---------------------------------------------------------------------------

def cmd_iterate(cfg: RunConfig, seed: int) -> dict:
    opt = dict(cfg.options["iterate"])
    plot = opt.pop("plot", True)
    orbit = ob.iterate(cfg.params, cfg.pert, _start_point(cfg, opt),
                       opt.pop("n", 1000), **opt)
    outputs = {"orbit.csv": (("iterate", "x", "y"),
                             [(i, _fmt(x), _fmt(y))
                              for i, (x, y) in enumerate(orbit.points)])}
    if plot and len(orbit.points):
        outputs["orbit.svg"] = svgplot.orbit_scatter_svg(
            orbit.points, provenance=_svg_provenance(cfg, seed),
            title=f"orbit lambda={cfg.params.lam:g} K={cfg.params.k_omega:g}"
                  + (" (escaped)" if orbit.escaped else ""))
    return outputs


def cmd_lyapunov(cfg: RunConfig, seed: int) -> dict:
    opt = dict(cfg.options["lyapunov"])
    est = ob.lyapunov(cfg.params, cfg.pert, _start_point(cfg, opt),
                      opt.pop("n", 100_000), **opt)
    return {"lyapunov.json": {
        "kind": "lyapunov-estimate", "chi1": est.chi1, "chi2": est.chi2,
        "saturated": est.saturated, "det_consistency": est.det_consistency,
        "n_iter": est.n_iter, "cadence": ob.QR_CADENCE,
        "inconclusive": est.inconclusive, "escaped_at": est.escaped_at}}


def cmd_scan(cfg: RunConfig, seed: int) -> dict:
    opt = dict(cfg.options["scan"])
    if "lambda_grid" not in opt or "k_omega_grid" not in opt:
        raise ConfigError("scan needs 'lambda_grid' and 'k_omega_grid'")
    plot = opt.pop("plot", True)
    result = ob.scan(opt.pop("lambda_grid"), opt.pop("k_omega_grid"),
                     cfg.params, cfg.pert, ob.Budget(**opt))
    outputs = {"scan.csv": (ob.SCAN_CSV_COLUMNS, ob.scan_rows(result))}
    if plot:
        outputs["regime_map.svg"] = svgplot.regime_map_svg(
            result, provenance=_svg_provenance(cfg, seed))
    outputs["boundaries.json"] = {
        "kind": "scan-boundaries",
        "t2_hat": {str(k): v for k, v in result.t2_hat.items()},
        "t1_hat": {str(k): v for k, v in result.t1_hat.items()},
        "ordered": result.ordered}
    return outputs


def cmd_audit(cfg: RunConfig, seed: int) -> dict:
    kw = dict(cfg.options["audit"])
    if "lambda_range" in kw:
        kw["lam_range"] = kw.pop("lambda_range")
    report = au.run_audit(cfg.params, cfg.pert, seed=seed, **kw)
    return {"audit.json": report.to_report()}


def cmd_misiurewicz(cfg: RunConfig, seed: int) -> dict:
    kw = dict(cfg.options["misiurewicz"])
    cert = cm.misiurewicz_check(cm.family_from_model(cfg.params, cfg.pert),
                                kw.pop("a", 0.0), seed=seed, **kw)
    return {"certificate.json": cert.to_report()}


def cmd_superstable(cfg: RunConfig, seed: int) -> dict:
    kw = dict(cfg.options["superstable"])
    period = kw.pop("period", 2)
    window = kw.setdefault("a_window", (0.0, TWO_PI))
    orbits = cm.superstable_search(cm.family_from_model(cfg.params, cfg.pert),
                                   period, **kw)
    return {"superstable.json": {
        "kind": "superstable-orbits", "period": period,
        "a_window": list(window),
        "orbits": [{"a_star": s.a_star, "critical_point": s.critical_point,
                    "winding": s.winding, "residual": s.residual,
                    "deriv_residual": s.deriv_residual,
                    "lambdas": list(s.lambdas),
                    "cycles": [dataclasses.asdict(ob.confirm_cycle(
                        cfg.params.with_lambda(lam), cfg.pert,
                        CylinderPoint(s.critical_point, lam), period))
                        for lam in s.lambdas]} for s in orbits]}}


def cmd_rotation(cfg: RunConfig, seed: int) -> dict:
    kw = dict(cfg.options["rotation"])
    if kw.pop("mode", "circle") == "circle":
        ri = cm.rotation_interval(cm.family_from_model(cfg.params, cfg.pert),
                                  kw.pop("a", 0.0), **kw)
        payload = {"kind": "rotation-interval", "mode": "circle",
                   "rho_min": ri.rho_min, "rho_max": ri.rho_max,
                   "error": ri.error, "degenerate": ri.degenerate}
    else:
        if "a" in kw:  # the annulus orbits run at the model's lambda
            raise ValueError("rotation.a applies to circle mode only")
        n, n_seeds = kw.get("n_iter", 2000), kw.get("n_seeds", 16)
        if n_seeds < 1:  # the message rotation_interval gives in circle mode
            raise ValueError(f"need n_seeds >= 1, got n_seeds={n_seeds}")
        seeds = [CylinderPoint(x, cfg.params.lam)
                 for x in np.linspace(0.0, TWO_PI, n_seeds, endpoint=False)]
        try:
            lo, hi = ob.rotation_set_2d(cfg.params, cfg.pert, seeds, n)
        except EscapeError:
            raise ComputationError("all rotation seeds escaped")
        payload = {"kind": "rotation-interval", "mode": "annulus",
                   "rho_min": lo, "rho_max": hi, "error": 1.0 / n,
                   "degenerate": (hi - lo) <= 2.0 / n}
    return {"rotation.json": payload}


def cmd_singular_limit(cfg: RunConfig, seed: int) -> dict:
    opt = cfg.options["singular_limit"]
    rows = cm.singular_limit_convergence(
        cfg.params, cfg.pert, opt.get("a", 0.0),
        range(opt.get("n_min", 3), opt.get("n_max", 12) + 1))
    return {"singular_limit.csv": (
        ("n", "lambda", "value_err", "d1_err", "second_comp_err",
         "excluded", "twist_offset"),
        [(r.n, _fmt(r.lam), _fmt(r.value_err), _fmt(r.d1_err),
          _fmt(r.second_comp_err), r.excluded, _fmt(r.twist_offset))
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
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = os.environ.get("BYKOVLAB_OUT", args.out)
    os.makedirs(out, exist_ok=True)
    seed = cfg.seed if args.seed is None else args.seed
    try:
        outputs = COMMANDS[args.command](cfg, seed)
    except (ComputationError, EscapeError, cm.EmptyCriticalSetError,
            cm.NonMorseError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # a config value the command rejects (after the subclasses above)
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
