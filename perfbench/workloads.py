"""Workload definitions: seeded config generation and CLI arguments.

Every workload runs the reference model (c1=2, e1=1, c2=3, e2=1,
Phi1 = cos x, Phi2 = 1.1 + sin x).  The benchmark seed picks one of
`VARIANTS` input variants; the variant sets the config's `seed:` and the
Lyapunov start angle.  The program sees only the generated YAML.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VARIANTS = 16  # input variants; references are recorded for each one

SCAN_LAMBDAS = (1e-4, 1e-3, 1e-2, 0.3)
SCAN_KS = (0.1, 0.45, 8.0, 15.0)
SCAN_N_ITER = 2000
SCAN_BURN_IN = 500

AUDIT_K = 5.0
AUDIT_LAMBDA = 1e-3
AUDIT_N_A = 64

LYAP_K = 5.0
LYAP_LAMBDA = 1e-3
LYAP_N = 50_000
LYAP_BURN_IN = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # bykovlab subcommand
    item_unit: str    # what items_per_s counts
    items: int        # items completed by one CLI call


WORKLOADS = {
    w.name: w for w in (
        Workload("scan_grid", "scan", "cells", len(SCAN_LAMBDAS) * len(SCAN_KS)),
        Workload("audit_k5", "audit", "a-parameters", AUDIT_N_A),
        Workload("lyapunov_long", "lyapunov", "map steps",
                 LYAP_BURN_IN + LYAP_N),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def lyapunov_x0(variant: int) -> float:
    """Start angle of the lyapunov_long orbit for one input variant."""
    return float(np.random.default_rng(variant).uniform(0.0, 2.0 * math.pi))


def _model_block(k_omega: float, lam: float) -> str:
    omega = k_omega / 3.0  # reference eigenvalues: K_omega = 3 * omega
    return (
        "model:\n"
        "  c1: 2.0\n  e1: 1.0\n"
        f"  omega1: {omega!r}\n"
        "  c2: 3.0\n  e2: 1.0\n"
        f"  omega2: {omega!r}\n"
        "  xi: 0.0\n"
        f"  lambda: {lam!r}\n"
        "perturbation:\n"
        "  phi1: {family: cosine}\n"
        "  phi2: {family: offset_sine}\n")


def config_yaml(workload: str, variant: int) -> str:
    """The YAML config the CLI receives for one workload and input variant."""
    if workload == "scan_grid":
        # the scan grid overrides the model block's lambda and K_omega
        body = (_model_block(AUDIT_K, AUDIT_LAMBDA)
                + "scan:\n"
                f"  lambda_grid: {[float(v) for v in SCAN_LAMBDAS]}\n"
                f"  k_omega_grid: {[float(v) for v in SCAN_KS]}\n"
                f"  n_iter: {SCAN_N_ITER}\n"
                f"  burn_in: {SCAN_BURN_IN}\n")
    elif workload == "audit_k5":
        body = (_model_block(AUDIT_K, AUDIT_LAMBDA)
                + f"audit:\n  n_a: {AUDIT_N_A}\n")
    elif workload == "lyapunov_long":
        body = (_model_block(LYAP_K, LYAP_LAMBDA)
                + "lyapunov:\n"
                f"  n: {LYAP_N}\n"
                f"  burn_in: {LYAP_BURN_IN}\n"
                f"  x0: {lyapunov_x0(variant)!r}\n")
    else:
        raise KeyError(workload)
    return body + f"seed: {variant}\n"


def cli_argv(workload: str, config_path: str, out_dir: str,
             threads: int = 1) -> list[str]:
    return [WORKLOADS[workload].command, "--config", config_path,
            "--out", out_dir, "--threads", str(threads)]
