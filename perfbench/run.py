"""bykovlab benchmark: closed-loop CLI workloads with an optional traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan_grid --seed 0 --seconds 25 --trace 0

One client calls the `bykovlab` CLI entry point in-process, one call at a
time, until `--seconds` have passed (at least one call).  Every call's
outputs are checked against the references in references.json.
`--workload all` runs every workload in turn.

With `--trace 0` the last stdout line reports the end-to-end metrics:
wall_s (median CLI call), items_per_s, setup_s (import of bykovlab plus
load_config, median of fresh interpreters) and peak_rss_mib.  With
`--trace 1` the calls alternate untraced and traced, and the last line
reports the per-layer metrics of tracing.py plus trace.overhead_s and
fail_ratio.  Lines before it print each metric with its unit; a JSON file
with the run manifest, every sample and the check results, and (traced)
the recorded spans are written under .perfbench_out/.

Exits 2 without a result when the checkout holds no bykovlab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from check import check_outputs, load_references
from tracing import Tracer
from workloads import (VARIANTS, WORKLOADS, cli_argv, config_yaml,
                       variant_of)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import bykovlab.cli
from bykovlab.config import load_config
load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""

COUNT_SUFFIXES = (".calls", ".steps", ".points", ".inconclusive", ".escapes")


def measure_setup(config_path: Path) -> float:
    """Import bykovlab and load the config in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], text=True,
                              capture_output=True, timeout=30).stdout.strip()
    return {"sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def manifest(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {"git": git_state(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_1m_at_start": os.getloadavg()[0],
            "workload": workload, "seed": seed,
            "variant": variant_of(seed), "variants": VARIANTS,
            "seconds": seconds, "trace": trace}


class Client:
    """Calls the CLI entry point and checks each call's outputs."""

    def __init__(self, cli, workload: str, variant: int, config: Path,
                 out_dir: Path, refs: dict):
        self.cli, self.workload, self.variant = cli, workload, variant
        self.config, self.out_dir, self.refs = config, out_dir, refs
        self.attempted = 0
        self.failures: list[list[str]] = []

    def call(self, threads: int = 1) -> float:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = cli_argv(self.workload, str(self.config), str(self.out_dir),
                        threads)
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)  # looked up per call: tracing rebinds it
        except (Exception, SystemExit) as exc:
            rc = repr(exc)
        wall = time.perf_counter() - t0
        self.attempted += 1
        errors = ([f"exit status {rc}"] if rc != 0 else
                  check_outputs(self.workload, str(self.out_dir), self.refs,
                                self.variant))
        if errors:
            self.failures.append(errors)
            print(f"# {self.workload}: check failed: {errors}",
                  file=sys.stderr)
        return wall


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(client: Client, seconds: int) -> dict:
    """Closed loop of untraced calls; a set-up sample follows each call, so
    set-up and call times are sampled over the same stretch of the run."""
    measure_setup(client.config)  # warm-up: bytecode cache, file cache
    setup = [measure_setup(client.config)]
    walls: list[float] = []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        walls.append(client.call())
        setup.append(measure_setup(client.config))
    wall = statistics.median(walls)
    items = WORKLOADS[client.workload].items
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": _metric(wall, "s", len(walls)),
            "items_per_s": _metric(items / wall, "items/s", len(walls)),
            "setup_s": _metric(statistics.median(setup), "s", len(setup)),
            "peak_rss_mib": _metric(rss_mib, "MiB", 1),
            "_samples": {"wall_s": walls, "setup_s": setup}}


def per_layer(client: Client, seconds: int, spans_path: Path) -> dict:
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    summaries: list[dict] = []
    threads2 = (client.call(threads=2) if client.workload == "scan_grid"
                else None)
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        untraced.append(client.call())
        tracer.install()
        try:
            mark = tracer.mark()
            traced.append(client.call())
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary(mark))
    tracer.save(str(spans_path))

    n = len(summaries)
    metrics, notes = {}, []
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if key.endswith(COUNT_SUFFIXES):
            if len(set(values)) > 1:
                notes.append(f"{key} differs between traced calls: {values}")
            metrics[key] = _metric(values[0], "count", n)
        elif key.endswith("_s"):
            metrics[key] = _metric(statistics.median(values), "s", n)
        else:
            metrics[key] = _metric(statistics.median(values), "ratio", n)
    u_med = statistics.median(untraced)
    metrics["orbits.scan.threads2_speedup"] = _metric(
        u_med / threads2 if threads2 else 0.0, "ratio", 1 if threads2 else 0)
    metrics["trace.overhead_s"] = _metric(statistics.median(traced) - u_med,
                                          "s", n)
    metrics["fail_ratio"] = _metric(len(client.failures) / client.attempted,
                                    "ratio", client.attempted)
    metrics["_samples"] = {"untraced_wall_s": untraced,
                           "traced_wall_s": traced, "threads2_wall_s": threads2,
                           "notes": notes}
    for note in notes:
        print(f"# {client.workload}: {note}", file=sys.stderr)
    return metrics


def run_workload(cli, refs: dict, workload: str, seed: int, seconds: int,
                 trace: int) -> dict:
    variant = variant_of(seed)
    work_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    work_dir.mkdir(parents=True, exist_ok=True)
    config = work_dir / "config.yaml"
    config.write_text(config_yaml(workload, variant), encoding="utf-8")
    info = manifest(workload, seed, seconds, trace)
    client = Client(cli, workload, variant, config, work_dir / "out", refs)
    if trace:
        metrics = per_layer(client, seconds, work_dir / "spans.npz")
    else:
        metrics = end_to_end(client, seconds)
    samples = metrics.pop("_samples")
    info["samples_per_metric"] = {k: v["samples"] for k, v in metrics.items()}
    result = {"manifest": info, "metrics": metrics, "samples": samples,
              "attempted": client.attempted, "failed": len(client.failures),
              "failures": client.failures}
    (work_dir / "result.json").write_text(json.dumps(result, indent=1),
                                          encoding="utf-8")
    print(f"# {workload} manifest: {json.dumps(info)}")
    wl = WORKLOADS[workload]
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']} "
              f"(samples {m['samples']})")
    print(f"{workload} items: {wl.items} {wl.item_unit} per call; check: "
          f"{client.attempted - len(client.failures)}/{client.attempted} "
          f"calls correct")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bykovlab" / "__init__.py").is_file():
        print(f"no bykovlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bykovlab import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"bykovlab imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    refs = load_references()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(cli, refs, name, args.seed, args.seconds,
                                  args.trace) for name in names}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for name, r in results.items():
        for key, m in r["metrics"].items():
            label = key if len(names) == 1 else f"{name}.{key}"
            metrics[label] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
