"""Workload definitions and the exact work counts each one implies.

Every workload is closed-loop: one aptest run in which each batch waits for
the previous one.  Three go through the command line (two presets and one
generated YAML config); ``observed-analysis`` drives the library API.
"""

from __future__ import annotations

import math
import os

#: Replicates per random stream in the engine (``aptest.engine.CHUNK_SIZE``).
CHUNK = 16384

#: Why each was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("phase3-desk", "binary-desk", "normal-grid", "observed-analysis")

_PRESETS = {"phase3-desk": "phase3-desk", "binary-desk": "empirical-binary-desk"}

#: normal-grid design: N=400, burn-in 40, block size 1 -> T = 360 adaptive blocks.
NORMAL_N, NORMAL_BURN_IN, NORMAL_BLOCK = 400, 40, 1
NORMAL_ALTERNATIVES = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)


def threads_for(workload: str) -> int:
    """Worker count of the untraced run: nproc for the pooled workloads, else 1."""
    if workload in ("phase3-desk", "normal-grid"):
        return os.cpu_count() or 1
    return 1


def normal_grid_config(seed: int) -> dict:
    """The normal-grid scenario document for one benchmark seed.

    The custom late-block test starts halfway through the trial; its weight
    vector covers blocks t_min .. T+1, so its length is T + 2 - t_min.
    """
    num_blocks = (NORMAL_N - NORMAL_BURN_IN) // NORMAL_BLOCK
    t_min = num_blocks // 2 + 1
    weights = [float(k) for k in range(1, num_blocks + 2 - t_min + 1)]
    tests = [
        {"ap": "original"},
        {"ap": "timedirect"},
        {"ap": "lastblock"},
        {"ap": "custom", "name": "lateblock", "f": "indicator", "threshold": 0.5,
         "t_min": t_min, "weights": weights},
        {"comparator": "z"},
        {"comparator": "z", "on_er": True},
    ]
    scenarios = []
    for kind in ("standard", "tuned"):
        scenarios.append({
            "name": f"normal-grid-{kind}",
            "design": {"kind": kind, "total_n": NORMAL_N, "burn_in": NORMAL_BURN_IN,
                       "block_size": NORMAL_BLOCK},
            "outcome": {"family": "normal", "control": 0.0,
                        "experimental": list(NORMAL_ALTERNATIVES),
                        "sd_control": 1.0, "sd_experimental": 1.0},
            "prior": {"kind": "normal", "mean": 0.0, "variance": 100.0},
            "alpha": 0.05,
            "seed": seed,
            "replicates": {"calibration": 100000, "evaluation": 10000},
            "tests": tests,
        })
    return {"scenarios": scenarios}


def cli_argv(workload: str, seed: int, threads: int, out_dir, config_path=None) -> list[str]:
    """aptest command-line arguments for one CLI workload."""
    if workload == "normal-grid":
        source = ["--config", str(config_path)]
    else:
        source = ["--preset", _PRESETS[workload]]
    return [*source, "--seed", str(seed), "--threads", str(threads), "--out", str(out_dir)]


def batch_plan(scenarios) -> list[dict]:
    """Every simulate_batch call a list of ScenarioSpecs makes, in call order.

    Mirrors the harness: per design role, one calibration batch when the role
    has calibrated tests; then per model, one evaluation batch for the
    primary design and one for the equal-randomization design if it has
    tests.
    """
    plan = []
    for spec in scenarios:
        roles = [(spec.design, [e for e in spec.tests if not e.on_er])]
        er_entries = [e for e in spec.tests if e.on_er]
        if er_entries:
            roles.append((spec.er_design, er_entries))
        for design, entries in roles:
            if any(e.mode == "calibrated" for e in entries):
                plan.append(_batch("calibration", design, spec.replicates_calib))
        for _model in spec.model_grid():
            for index, (design, entries) in enumerate(roles):
                if entries or index == 0:
                    plan.append(_batch("evaluation", design, spec.replicates_eval))
    return plan


def _batch(role: str, design, replicates: int) -> dict:
    blocks = design.num_blocks + 1 if design.is_adaptive else 0
    return {
        "role": role,
        "replicates": replicates,
        "chunks": math.ceil(replicates / CHUNK),
        "blocks": blocks,  # superiority evaluations per replicate
    }


def plan_counts(plan: list[dict]) -> dict:
    """Exact counts a batch plan implies: the self-check compares the trace to these."""
    return {
        "engine.batches": len(plan),
        "engine.chunks": sum(b["chunks"] for b in plan),
        "engine.kernel_calls": sum(b["chunks"] * b["blocks"] for b in plan),
        "engine.rep_blocks": sum(b["replicates"] * b["blocks"] for b in plan),
        "harness.cells": sum(1 for b in plan if b["role"] == "evaluation"),
        "trials": sum(b["replicates"] for b in plan),
    }
