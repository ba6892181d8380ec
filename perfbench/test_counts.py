"""Self-checks of the benchmark: work counts, config generation, span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_counts.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import observed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Worked out by hand from each design (T adaptive blocks -> T + 1 superiority
# evaluations per replicate) and the desk budgets (1e5 calibration = 7
# chunks, 1e4 evaluation = 1 chunk).
HAND_WORKED = {
    # T=45; calibration: 2 adaptive + 2 ER; cells: 2 x 6 x 2 + 2 x 2 x 2
    "phase3-desk": {
        "engine.batches": 36, "engine.chunks": 60, "engine.kernel_calls": 1380,
        "engine.rep_blocks": 16_560_000, "harness.cells": 32, "trials": 720_000,
    },
    # T=109; calibration: 2 adaptive + 2 ER; cells: 2 x 2 x 2
    "binary-desk": {
        "engine.batches": 12, "engine.chunks": 36, "engine.kernel_calls": 1980,
        "engine.rep_blocks": 26_400_000, "harness.cells": 8, "trials": 480_000,
    },
    # T=360; calibration: 2 adaptive + 2 ER; cells: 2 x 7 x 2
    "normal-grid": {
        "engine.batches": 32, "engine.chunks": 56, "engine.kernel_calls": 10_108,
        "engine.rep_blocks": 122_740_000, "harness.cells": 28, "trials": 680_000,
    },
}


def _scenarios(workload: str, tmp_path: Path):
    from aptest import cli

    config = tmp_path / "normal-grid.yaml"
    config.write_text(yaml.safe_dump(workloads.normal_grid_config(7)), encoding="utf-8")
    argv = workloads.cli_argv(workload, 7, 1, tmp_path / "out", config)
    return [job.scenario for job in cli.build_manifest(cli.build_parser().parse_args(argv)).jobs]


@pytest.mark.parametrize("workload", sorted(HAND_WORKED))
def test_cli_plan_counts_match_hand_worked_values(workload, tmp_path):
    counts = workloads.plan_counts(workloads.batch_plan(_scenarios(workload, tmp_path)))
    assert counts == HAND_WORKED[workload]


def test_observed_counts_match_hand_worked_values():
    assert observed.expected_counts() == {
        "engine.batches": 3, "engine.chunks": 3, "engine.kernel_calls": 330,
        "engine.rep_blocks": 5_406_720, "harness.cells": 0,
        "trials": 452 + 3 * 16384, "ops": 455,
    }


def test_chunk_size_matches_engine():
    from aptest import engine

    assert workloads.CHUNK == engine.CHUNK_SIZE


def test_normal_grid_custom_weights_cover_t_min_to_last_block(tmp_path):
    doc = workloads.normal_grid_config(3)
    num_blocks = (workloads.NORMAL_N - workloads.NORMAL_BURN_IN) // workloads.NORMAL_BLOCK
    for scenario in doc["scenarios"]:
        (custom,) = [t for t in scenario["tests"] if t.get("ap") == "custom"]
        assert len(custom["weights"]) == num_blocks + 2 - custom["t_min"]
        assert scenario["seed"] == 3
    specs = _scenarios("normal-grid", tmp_path)
    from aptest.stats import block_weights

    for spec in specs:
        for entry in spec.tests:
            if entry.name == "lateblock":
                assert block_weights(entry.spec, spec.design.num_blocks).size == len(custom["weights"])


def test_layer_self_time_subtracts_child_spans():
    # batch [0, 10] holds two kernel calls of 2 s and one comparator of 1 s.
    spans = [
        ["harness.run_scenario", 0.0, 12.0, -1, 0],
        ["engine.simulate_batch", 0.0, 10.0, 0, 100],
        ["engine.kernel_gamma", 1.0, 3.0, 1, 100],
        ["engine.kernel_gamma", 4.0, 6.0, 1, 100],
        ["stats.comparator", 7.0, 8.0, 1, 100],
        ["engine.chunk_stream", 0.0, 0.5, 1, 0],
    ]
    m = tracing.layer_metrics(spans, wall_s=20.0)
    assert m["engine.kernel_gamma_ns"] == pytest.approx(2.0 / 100 * 1e9)
    assert m["engine.self_ns"] == pytest.approx((10.0 - 4.0 - 1.0) / 200 * 1e9)
    assert m["engine.kernel_share"] == pytest.approx(0.2)
    assert m["harness.self_s"] == pytest.approx(2.0)
    assert m["harness.cells"] == 1
    assert m["engine.chunks"] == 1


def test_pool_overhead_is_wall_minus_even_share():
    serial = [["engine.simulate_batch", 0.0, 8.0, -1, 100_000], ["engine.simulate_batch", 8.0, 9.0, -1, 10_000]]
    pooled = [["engine.simulate_batch", 0.0, 5.0, -1, 100_000], ["engine.simulate_batch", 5.0, 6.0, -1, 10_000]]
    m = tracing.pool_metrics(pooled, serial, threads=2)
    assert m == {"engine.pools": 1, "engine.serial_batches": 1, "engine.pool_overhead_s": pytest.approx(1.0)}


def test_traced_counts_equal_plan_on_a_small_scenario():
    from aptest import cli, harness
    from aptest.allocation import DesignConfig, TunedBRAR
    from aptest.models import NormalKnownVar, NormalPrior, OutcomeModel
    from aptest.stats import ComparatorTest, timedirect_ap_test

    spec = harness.ScenarioSpec(
        name="tiny",
        design=DesignConfig(total_n=30, burn_in=10, block_size=2, num_blocks=10, design=TunedBRAR()),
        prior=NormalPrior(0.0, 100.0),
        null_model=OutcomeModel(NormalKnownVar(0.0, 0.0, 1.0, 1.0)),
        alternative_models=(OutcomeModel(NormalKnownVar(0.0, 0.5, 1.0, 1.0)),),
        tests=(harness.TestEntry(timedirect_ap_test()),
               harness.TestEntry(ComparatorTest("z", "z-er"), on_er=True)),
        replicates_eval=10_000, replicates_calib=20_000, seed=5,
    )
    tracer = tracing.Tracer("self-check")
    tracing.install_all(tracer)
    try:
        cli.run_scenario(spec)
    finally:
        tracer.restore()
    assert cli.run_scenario is harness.run_scenario
    expected = workloads.plan_counts(workloads.batch_plan([spec]))
    m = tracing.layer_metrics(tracer.spans, wall_s=1.0)
    for name in ("engine.rep_blocks", "engine.chunks", "engine.kernel_calls", "engine.batches", "harness.cells"):
        assert m[name] == expected[name], name
