"""Spans recorded around aptest's public functions, from outside the package.

``Tracer.wrap`` replaces a module attribute with a timing wrapper, so every
call that looks the name up in that module records a span: name, start,
end, parent span and run id.  Spans stay in memory and are written out once,
when the traced process ends.  Nothing under ``src/aptest`` is modified.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from workloads import CHUNK

KERNELS = {
    "gamma_superiority_vec": "engine.kernel_gamma",
    "beta_superiority_vec": "engine.kernel_beta",
    "normal_superiority_vec": "engine.kernel_normal",
}
COMPARATORS = (
    "lr_exponential_from_counts",
    "fisher_statistic_from_counts",
    "z_statistic_from_counts",
)


def _replicates(args, kwargs, result):
    return result.replicates


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _first_arg_size(args, kwargs, result):
    return int(np.size(args[0]))


class Tracer:
    """In-memory span recorder; each span is [name, start, end, parent, elements]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, module, attr: str, name: str, elements=None) -> None:
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if elements is not None:
                span[4] = elements(args, kwargs, result)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tname\tstart\tend\tparent\telements\n")
            for name, start, end, parent, elements in self.spans:
                fh.write(f"{self.run_id}\t{name}\t{start!r}\t{end!r}\t{parent}\t{elements}\n")


def read_spans(path) -> list[list]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, name, start, end, parent, elements = line.rstrip("\n").split("\t")
            spans.append([name, float(start), float(end), int(parent), int(elements)])
    return spans


def install_pool_layer(tracer: Tracer) -> None:
    """Parent-side spans only: batches as the harness and calibration see them."""
    from aptest import calibration, harness

    tracer.wrap(harness, "simulate_batch", "engine.simulate_batch", _replicates)
    tracer.wrap(calibration, "simulate_batch", "engine.simulate_batch", _replicates)


def install_all(tracer: Tracer) -> None:
    """Every layer; chunk-level spans are only complete at one worker."""
    from aptest import allocation, calibration, cli, engine, harness, models, stats

    tracer.wrap(cli, "run_scenario", "harness.run_scenario")
    for attr in ("export_report", "export_critical_values", "_write_figure_data"):
        tracer.wrap(cli, attr, "cli.write")
    tracer.wrap(harness, "calibrate", "calibration.calibrate")
    tracer.wrap(harness, "patient_benefit", "harness.patient_benefit")
    install_pool_layer(tracer)
    tracer.wrap(calibration, "calibrate", "calibration.calibrate")
    tracer.wrap(calibration, "calibrate_under_pooled", "calibration.pooled")
    tracer.wrap(calibration, "simulate_null_distribution", "calibration.null")
    tracer.wrap(calibration, "critical_value", "calibration.select")
    tracer.wrap(engine, "derive_rng", "engine.chunk_stream")
    for attr, name in KERNELS.items():
        tracer.wrap(engine, attr, name, _result_size)
    for attr in COMPARATORS:
        tracer.wrap(engine, attr, "stats.comparator", _first_arg_size)
    tracer.wrap(allocation, "simulate_trial", "allocation.trial")
    tracer.wrap(allocation, "superiority_probability", "models.superiority")
    tracer.wrap(models, "_quadrature_superiority", "models.quadrature")
    for attr in ("ap_statistic", "lr_exponential", "fisher_exact_one_sided", "z_test_normal"):
        tracer.wrap(stats, attr, "stats.trajectory")


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


def _durations(spans):
    return [end - start for _, start, end, _, _ in spans]


def _child_time(spans, durations):
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += durations[i]
    return child


def _ancestor(spans, index: int, name: str) -> int:
    """Index of the nearest ancestor called ``name``, or -1."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][3]
    return -1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer times and counts of a one-worker traced pass.

    ``wall_s`` is the pass's process wall time, the base of the shares.
    """
    dur = _durations(spans)
    child = _child_time(spans, dur)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    elements: dict[str, int] = {}
    for i, span in enumerate(spans):
        total[span[0]] = total.get(span[0], 0.0) + dur[i]
        calls[span[0]] = calls.get(span[0], 0) + 1
        elements[span[0]] = elements.get(span[0], 0) + span[4]

    def t(name):
        return total.get(name, 0.0)

    kernel_names = list(KERNELS.values())
    kernel_s = sum(t(k) for k in kernel_names)
    rep_blocks = sum(elements.get(k, 0) for k in kernel_names)
    batch_s = t("engine.simulate_batch")
    out = {}
    for name in kernel_names:
        out[name + "_ns"] = _ratio(t(name), elements.get(name, 0)) * 1e9
    out["engine.kernel_share"] = _ratio(kernel_s, wall_s)
    out["engine.self_ns"] = _ratio(batch_s - kernel_s - t("stats.comparator"), rep_blocks) * 1e9
    out["engine.rep_blocks"] = rep_blocks
    out["engine.kernel_calls"] = sum(calls.get(k, 0) for k in kernel_names)
    out["engine.chunks"] = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "engine.chunk_stream" and _ancestor(spans, i, "engine.simulate_batch") >= 0
    )
    out["engine.batches"] = calls.get("engine.simulate_batch", 0)
    out["stats.comparator_ns"] = _ratio(t("stats.comparator"), elements.get("stats.comparator", 0)) * 1e9

    null_idx = [i for i, s in enumerate(spans) if s[0] == "calibration.null"]
    out["calibration.null_s"] = t("calibration.null")
    out["calibration.share"] = _ratio(t("calibration.null"), wall_s)
    out["calibration.select_s"] = t("calibration.select") + sum(dur[i] - child[i] for i in null_idx)
    out["calibration.pooled_s"] = t("calibration.pooled")

    scen_idx = [i for i, s in enumerate(spans) if s[0] == "harness.run_scenario"]
    eval_idx = [
        i for i, s in enumerate(spans)
        if s[0] == "engine.simulate_batch" and s[3] >= 0 and spans[s[3]][0] == "harness.run_scenario"
    ]
    out["harness.eval_s"] = sum(dur[i] for i in eval_idx)
    out["harness.self_s"] = sum(dur[i] - child[i] for i in scen_idx)
    out["harness.cells"] = len(eval_idx)
    out["cli.write_s"] = t("cli.write")

    # Scalar path: trials and superiority calls that never reached quadrature.
    quad_sup, quad_trials = set(), set()
    for i, s in enumerate(spans):
        if s[0] == "models.quadrature":
            quad_sup.add(_ancestor(spans, i, "models.superiority"))
            quad_trials.add(_ancestor(spans, i, "allocation.trial"))
    closed = [dur[i] for i, s in enumerate(spans) if s[0] == "models.superiority" and i not in quad_sup]
    trials = [dur[i] for i, s in enumerate(spans) if s[0] == "allocation.trial" and i not in quad_trials]
    out["allocation.trial_ms"] = _ratio(sum(trials), len(trials)) * 1e3
    out["models.closed_us"] = _ratio(sum(closed), len(closed)) * 1e6
    out["models.quadrature_ms"] = _ratio(t("models.quadrature"), calls.get("models.quadrature", 0)) * 1e3
    out["models.quadrature_calls"] = calls.get("models.quadrature", 0)
    out["stats.trajectory_us"] = _ratio(t("stats.trajectory"), calls.get("allocation.trial", 0)) * 1e6
    return out


def pool_metrics(pool_spans, serial_spans, threads: int) -> dict:
    """Pool layer from the parent-side batch spans of a run at ``threads`` workers.

    Batches are matched by call order with the one-worker pass.  A batch is
    pooled when it has more than one chunk and more than one worker; its
    overhead is its wall time minus an even share of its one-worker time.
    """
    pooled = [s for s in pool_spans if s[0] == "engine.simulate_batch"]
    serial = [s for s in serial_spans if s[0] == "engine.simulate_batch"]
    if len(pooled) != len(serial):
        raise ValueError(f"batch sequences differ: {len(pooled)} vs {len(serial)}")
    pools, overhead, serial_batches = 0, 0.0, 0
    for p, s in zip(pooled, serial):
        chunks = -(-p[4] // CHUNK)
        if threads > 1 and chunks > 1:
            pools += 1
            overhead += (p[2] - p[1]) - (s[2] - s[1]) / min(threads, chunks)
        else:
            serial_batches += 1
    return {
        "engine.pools": pools,
        "engine.serial_batches": serial_batches,
        "engine.pool_overhead_s": overhead,
    }
