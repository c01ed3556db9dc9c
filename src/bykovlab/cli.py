"""Batch command-line front end.

Every command reads a strict YAML config, writes its outputs (CSV/JSON/SVG)
under the output directory with an embedded provenance block, and exits with
0 on success, 1 on validation errors, and 2 on computation failures.  All
randomness is seeded from the config (default seed 0) so outputs are
byte-identical across runs and thread counts.
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


def _provenance(cfg: RunConfig, seed: int) -> dict:
    return {"tool": "bykovlab", "version": __version__,
            "config_sha256": cfg.sha256, "seed": seed}


def _prov_comment(cfg: RunConfig, seed: int) -> str:
    return (f"# bykovlab {__version__}\n"
            f"# config sha256: {cfg.sha256}\n"
            f"# seed: {seed}\n")


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _write_json(path: str, payload: dict, cfg: RunConfig, seed: int) -> None:
    payload = dict(payload)
    prov = dict(payload.get("provenance", {}))
    prov.update(_provenance(cfg, seed))
    payload["provenance"] = prov
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")


def _write_csv(path: str, header, rows, cfg: RunConfig, seed: int) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_prov_comment(cfg, seed))
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_iterate(cfg: RunConfig, out: str, seed: int, threads: int,
                written: list[str]) -> None:
    opt = cfg.command_options("iterate", {"n", "burn_in", "x0", "y0", "plot"})
    n = int(opt.get("n", 1000))
    burn = int(opt.get("burn_in", 0))
    p0 = CylinderPoint(float(opt.get("x0", 0.5)),
                       float(opt.get("y0", max(cfg.params.lam, 1e-6))))
    orbit = ob.iterate(cfg.params, cfg.pert, p0, n, burn)
    path = os.path.join(out, "orbit.csv")
    rows = [(i, _fmt(x), _fmt(y))
            for i, (x, y) in enumerate(orbit.points)]
    _write_csv(path, ("iterate", "x", "y"), rows, cfg, seed)
    written.append(path)
    if opt.get("plot", True) and len(orbit.points):
        svg = svgplot.orbit_scatter_svg(
            orbit.points, provenance=_prov_comment(cfg, seed).replace("\n", " "),
            title=f"orbit lambda={cfg.params.lam:g} K={cfg.params.k_omega:g}"
                  + (" (escaped)" if orbit.escaped else ""))
        spath = os.path.join(out, "orbit.svg")
        with open(spath, "w", encoding="utf-8") as fh:
            fh.write(svg)
        written.append(spath)


def cmd_lyapunov(cfg: RunConfig, out: str, seed: int, threads: int,
                 written: list[str]) -> None:
    opt = cfg.command_options("lyapunov", {"n", "burn_in", "x0", "y0",
                                           "cadence"})
    n = int(opt.get("n", 100_000))
    p0 = CylinderPoint(float(opt.get("x0", 0.5)),
                       float(opt.get("y0", max(cfg.params.lam, 1e-6))))
    est = ob.lyapunov(cfg.params, cfg.pert, p0, n,
                      burn_in=int(opt.get("burn_in", 1000)),
                      cadence=int(opt.get("cadence", 10)))
    path = os.path.join(out, "lyapunov.json")
    _write_json(path, {"kind": "lyapunov-estimate",
                       "chi1": est.chi1, "chi2": est.chi2,
                       "saturated": est.saturated,
                       "det_consistency": est.det_consistency,
                       "n_iter": est.n_iter, "cadence": est.cadence,
                       "inconclusive": est.inconclusive}, cfg, seed)
    written.append(path)


def cmd_scan(cfg: RunConfig, out: str, seed: int, threads: int,
             written: list[str]) -> None:
    opt = cfg.command_options(
        "scan", {"lambda_grid", "k_omega_grid", "n_iter", "burn_in",
                 "chi_thresh", "curve_thresh", "plot"})
    if "lambda_grid" not in opt or "k_omega_grid" not in opt:
        raise ConfigError("scan needs 'lambda_grid' and 'k_omega_grid'")
    budget = ob.Budget(
        n_iter=int(opt.get("n_iter", 100_000)),
        burn_in=int(opt.get("burn_in", 2000)),
        chi_thresh=float(opt.get("chi_thresh", 5e-3)),
        curve_thresh=float(opt.get("curve_thresh", 0.02)))
    result = ob.scan([float(v) for v in opt["lambda_grid"]],
                     [float(v) for v in opt["k_omega_grid"]],
                     cfg.params, cfg.pert, budget, threads=threads)
    path = os.path.join(out, "scan.csv")
    _write_csv(path, ob.SCAN_CSV_COLUMNS, ob.scan_rows(result), cfg, seed)
    written.append(path)
    if opt.get("plot", True):
        svg = svgplot.regime_map_svg(
            result, provenance=_prov_comment(cfg, seed).replace("\n", " "))
        spath = os.path.join(out, "regime_map.svg")
        with open(spath, "w", encoding="utf-8") as fh:
            fh.write(svg)
        written.append(spath)
    bpath = os.path.join(out, "boundaries.json")
    _write_json(bpath, {"kind": "scan-boundaries",
                        "t2_hat": {str(k): v for k, v in result.t2_hat.items()},
                        "t1_hat": {str(k): v for k, v in result.t1_hat.items()},
                        "ordered": result.ordered}, cfg, seed)
    written.append(bpath)


def cmd_audit(cfg: RunConfig, out: str, seed: int, threads: int,
              written: list[str]) -> None:
    opt = cfg.command_options("audit", {"n_a", "a_window", "lambda_range",
                                        "thresholds"})
    window = tuple(float(v) for v in opt.get("a_window", (0.0, TWO_PI)))
    lam_range = tuple(float(v) for v in opt.get("lambda_range", (1e-4, 1e-2)))
    report = au.run_audit(cfg.params, cfg.pert, a_window=window,
                          n_a=int(opt.get("n_a", 64)), lam_range=lam_range,
                          seed=seed, thresholds=opt.get("thresholds"))
    path = os.path.join(out, "audit.json")
    _write_json(path, report.to_report(), cfg, seed)
    written.append(path)


def cmd_misiurewicz(cfg: RunConfig, out: str, seed: int, threads: int,
                    written: list[str]) -> None:
    opt = cfg.command_options("misiurewicz", {"a", "delta0", "horizon",
                                              "n_seeds"})
    family = cm.family_from_model(cfg.params, cfg.pert)
    cert = cm.misiurewicz_check(family, float(opt.get("a", 0.0)),
                                delta0=float(opt.get("delta0", 0.05)),
                                horizon=int(opt.get("horizon", 50)),
                                n_seeds=int(opt.get("n_seeds", 32)),
                                seed=seed)
    path = os.path.join(out, "certificate.json")
    _write_json(path, cert.to_report(), cfg, seed)
    written.append(path)


def cmd_superstable(cfg: RunConfig, out: str, seed: int, threads: int,
                    written: list[str]) -> None:
    opt = cfg.command_options("superstable", {"period", "a_window",
                                              "n_lambdas"})
    family = cm.family_from_model(cfg.params, cfg.pert)
    window = tuple(float(v) for v in opt.get("a_window", (0.0, TWO_PI)))
    orbits = cm.superstable_search(family, int(opt.get("period", 2)),
                                   a_window=window,
                                   n_lambdas=int(opt.get("n_lambdas", 8)))
    path = os.path.join(out, "superstable.json")
    _write_json(path, {
        "kind": "superstable-orbits",
        "period": int(opt.get("period", 2)),
        "a_window": list(window),
        "orbits": [{"a_star": s.a_star, "critical_point": s.critical_point,
                    "winding": s.winding, "residual": s.residual,
                    "deriv_residual": s.deriv_residual,
                    "lambdas": list(s.lambdas)} for s in orbits]}, cfg, seed)
    written.append(path)


def cmd_rotation(cfg: RunConfig, out: str, seed: int, threads: int,
                 written: list[str]) -> None:
    opt = cfg.command_options("rotation", {"a", "n_iter", "n_seeds", "mode"})
    mode = opt.get("mode", "circle")
    if mode == "circle":
        family = cm.family_from_model(cfg.params, cfg.pert)
        ri = cm.rotation_interval(family, float(opt.get("a", 0.0)),
                                  n_iter=int(opt.get("n_iter", 2000)),
                                  n_seeds=int(opt.get("n_seeds", 16)))
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
    path = os.path.join(out, "rotation.json")
    _write_json(path, payload, cfg, seed)
    written.append(path)


def cmd_singular_limit(cfg: RunConfig, out: str, seed: int, threads: int,
                       written: list[str]) -> None:
    opt = cfg.command_options("singular_limit", {"a", "n_min", "n_max", "nx",
                                                 "ny"})
    rows = cm.singular_limit_convergence(
        cfg.params, cfg.pert, float(opt.get("a", 0.0)),
        range(int(opt.get("n_min", 3)), int(opt.get("n_max", 12)) + 1),
        nx=int(opt.get("nx", 128)), ny=int(opt.get("ny", 4)))
    path = os.path.join(out, "singular_limit.csv")
    _write_csv(path,
               ("n", "lambda", "value_err", "d1_err", "d2_err",
                "second_comp_err", "excluded"),
               [(r.n, _fmt(r.lam), _fmt(r.value_err), _fmt(r.d1_err),
                 _fmt(r.d2_err), _fmt(r.second_comp_err), r.excluded)
                for r in rows], cfg, seed)
    written.append(path)


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
        p.add_argument("--threads", type=int, default=1)
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
    written: list[str] = []
    try:
        COMMANDS[args.command](cfg, out, seed, max(1, args.threads), written)
    except (ConfigError, InvalidParamsError, MorseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ComputationError, EscapeError, cm.EmptyCriticalSetError,
            cm.NonMorseError, np.linalg.LinAlgError, ArithmeticError) as exc:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # an option value the computation rejects (after the subclasses above)
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.verbose:
        for path in written:
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
