"""The names the benchmark under ``perfbench/`` wraps and reads still exist.

The benchmark patches aptest's module attributes by name; a rename or
deletion in aptest breaks it without failing any other test.
"""

import importlib
from pathlib import Path

import pytest

from aptest import engine
from aptest.presets import build_preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

pytestmark = pytest.mark.skipif(
    not (PERFBENCH / "tracing.py").exists(), reason="perfbench/ is not present"
)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_tracer_installs_and_restores(perfbench):
    tracing, _ = perfbench
    tracer = tracing.Tracer("contract")
    originals = {}
    try:
        tracing.install_all(tracer)
        tracing.install_pool_layer(tracer)
        for module, attr, fn in tracer._patched:
            originals.setdefault((module, attr), fn)  # the first wrap saw the original
        assert all(getattr(module, attr) is not fn for (module, attr), fn in originals.items())
    finally:
        tracer.restore()
    assert all(getattr(module, attr) is fn for (module, attr), fn in originals.items())


def test_batch_plan_reads_preset_scenarios(perfbench):
    _, workloads = perfbench
    assert workloads.CHUNK == engine.CHUNK_SIZE
    scenarios = [job.scenario for job in build_preset("phase3-desk")]
    counts = workloads.plan_counts(workloads.batch_plan(scenarios))
    assert counts["harness.cells"] == 32


def test_observed_analysis_builds(perfbench):
    # the observed workload builds its designs, models and priors through aptest's
    # constructors at set-up; building one makes no simulation
    observed = importlib.import_module("observed")
    analysis = observed.Analysis(0, trials=1)
    assert set(analysis.designs) == {"standard", "tuned"}
    assert len(analysis.ap_specs) == len(observed.AP_TESTS)
