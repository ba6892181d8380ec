"""aptest benchmark: one command, four closed-loop workloads, one JSON line.

    python3 perfbench/run.py --workload phase3-desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; aptest is imported from ``src/``.  With
``--trace 0`` the workload runs as a user runs it, again and again until
``--seconds`` seconds have passed, and the end-to-end metrics are medians
over those runs.  With ``--trace 1`` one run of each pass described
in ``traced_run`` gives the per-layer metrics.  Every output is checked
(see ``checks.py``); the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Scratch files go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import kernels  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Setup samples per run: each workload run gives one, short probes the rest.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
RSS_POLL_S = 0.05

UNITS = {
    "wall_s": "s", "setup_s": "s", "trials_per_s": "1/s", "cpu_s": "s",
    "worker_utilization": "ratio", "peak_rss_mb": "MB", "ok_ops_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as fh:
            return [int(c) for c in fh.read().split()]
    except OSError:
        return []


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssMonitor(threading.Thread):
    """Peak resident memory of a process tree, polled from /proc.

    ``peak_kb`` is the largest sum of the peak RSS (VmHWM) of the processes
    alive at one poll; ``worker_kb`` the largest VmHWM of any descendant.
    """

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self.root_kb = 0
        self.worker_kb = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            self.poll()
            self._stop_event.wait(RSS_POLL_S)

    def poll(self) -> None:
        root = _hwm_kb(self.pid)
        self.root_kb = max(self.root_kb, root)
        total, stack = root, _children(self.pid)
        while stack:
            pid = stack.pop()
            kb = _hwm_kb(pid)
            self.worker_kb = max(self.worker_kb, kb)
            total += kb
            stack.extend(_children(pid))
        self.peak_kb = max(self.peak_kb, total)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def run_child(workload: str, seed: int, threads: int, out: Path, mode: str,
              config: Path | None = None, trials: int | None = None) -> dict:
    """Start ``child.py``, wait for it, and measure it from outside."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--threads", str(threads), "--out", str(out), "--mode", mode]
    if config is not None:
        cmd += ["--config", str(config)]
    if trials is not None:
        cmd += ["--trials", str(trials)]
    src = str(HERE.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(out / "child.log", "w", encoding="utf-8") as log:
        t0 = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                cwd=HERE.parent, start_new_session=True)
        monitor = RssMonitor(proc.pid)
        monitor.start()
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            wall = time.perf_counter() - started
            monitor.stop()
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
                proc.wait()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        record = json.loads((out / "child.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    record.update(
        exit_code=code,
        wall_s=wall,
        setup_s=record["t_setup"] - t0 if "t_setup" in record else None,
        cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        peak_rss_mb=monitor.peak_kb / 1024.0,
        root_rss_mb=monitor.root_kb / 1024.0,
        worker_rss_mb=monitor.worker_kb / 1024.0,
    )
    return record


# ---------------------------------------------------------------------------
# Checks shared by both kinds of run
# ---------------------------------------------------------------------------


class Verifier:
    """Checks outputs, counts operations, and tracks output digests."""

    def __init__(self, workload: str, seed: int, out_root: Path):
        self.workload = workload
        self.seed = seed
        self.reference = checks.load_reference(workload)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.log = out_root / "digests.tsv"
        self.src_hash = _tree_hash(HERE.parent / "src")

    def check(self, record: dict, out: Path) -> None:
        expected_ops = record.get("expected", {}).get("ops")
        try:
            if record.get("exit_code") != 0:
                raise RuntimeError(f"exit code {record.get('exit_code')} (see {out / 'child.log'})")
            if self.workload == "observed-analysis":
                attempted, failed, problems = checks.check_observed(
                    out, self.reference, record["trials_per_family"])
            else:
                attempted, failed, problems = checks.check_cli(self.workload, out / "tsv", self.reference)
        except (OSError, KeyError, ValueError, RuntimeError) as exc:
            attempted = expected_ops or len(self.reference.get("scenarios", ())) or 1
            failed, problems = attempted, [f"run failed: {exc}"]
        self.attempted += attempted
        self.failed += failed
        self.problems += problems
        if record.get("exit_code") == 0:
            self.digests.add(checks.digest(out))

    def fail(self, problem: str) -> None:
        """A failed check outside any one operation fails one more, up to all of them."""
        self.problems.append(problem)
        self.failed = min(self.failed + 1, self.attempted)

    def finish(self) -> None:
        """Same seed, same source: every output digest must be identical."""
        if len(self.digests) > 1:
            self.fail(f"outputs differ between runs of seed {self.seed}")
        key = f"{self.workload}\t{self.seed}\t{self.src_hash}"
        previous = {}
        if self.log.exists():
            for line in self.log.read_text(encoding="utf-8").splitlines():
                k, _, d = line.rpartition("\t")
                previous[k] = d
        for d in self.digests:
            if key in previous and previous[key] != d:
                self.fail(f"digest {d[:12]} differs from an earlier run of seed {self.seed}")
            elif key not in previous:
                with open(self.log, "a", encoding="utf-8") as fh:
                    fh.write(f"{key}\t{d}\n")
                previous[key] = d


def _tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _prepare(workload: str, seed: int, out_root: Path) -> Path | None:
    if workload != "normal-grid":
        return None
    import yaml

    config = out_root / "normal-grid.yaml"
    config.write_text(yaml.safe_dump(workloads.normal_grid_config(seed), sort_keys=False), encoding="utf-8")
    return config


def timed_run(workload: str, seed: int, seconds: float, out_root: Path, verifier: Verifier) -> dict:
    """Untraced runs until ``seconds`` have passed; end-to-end metrics are their medians."""
    threads = workloads.threads_for(workload)
    config = _prepare(workload, seed, out_root)
    samples = []
    started = time.perf_counter()
    while True:
        out = out_root / f"run{len(samples)}"
        record = run_child(workload, seed, threads, out, "plain", config)
        verifier.check(record, out)
        samples.append(record)
        if record["exit_code"] != 0 or time.perf_counter() - started >= seconds:
            break
    setups = [r["setup_s"] for r in samples if r["setup_s"] is not None]
    while len(setups) < SETUP_SAMPLES:
        record = run_child(workload, seed, threads, out_root / "setup", "setup", config)
        if record["setup_s"] is None:
            break
        setups.append(record["setup_s"])
    verifier.finish()

    trials = samples[0].get("expected", {}).get("trials", 0)
    walls = [r["wall_s"] for r in samples]
    print(f"{workload}: {len(samples)} run(s) at {threads} worker(s), "
          f"walls {', '.join(f'{w:.3f}' for w in walls)} s; setups {', '.join(f'{s:.3f}' for s in setups)} s")
    ok = 1.0 - verifier.failed / max(verifier.attempted, 1)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups) if setups else 0.0,  # 0 only when set-up failed
        "trials_per_s": statistics.median(trials / w for w in walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in samples),
        "worker_utilization": statistics.median(r["cpu_s"] / (r["wall_s"] * threads) for r in samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in samples),
        "ok_ops_ratio": ok,
    }


def traced_run(workload: str, seed: int, out_root: Path, verifier: Verifier) -> dict:
    """Per-layer metrics from separate passes of one workload.

    * plain at one worker: the untraced reference for the tracing overhead
    * traced at one worker: every layer in-process, spans in memory
    * pool at the workload's worker count (pooled workloads only): batch
      spans in the parent, compared batch by batch with the traced pass
    * kernels: the per-family, per-N kernel table
    The traced pass's exact counts must equal the ones worked out from the
    workload's design and replicate budget.
    """
    threads = workloads.threads_for(workload)
    config = _prepare(workload, seed, out_root)
    plain = run_child(workload, seed, 1, out_root / "plain", "plain", config)
    verifier.check(plain, out_root / "plain")
    traced = run_child(workload, seed, 1, out_root / "traced", "traced", config)
    verifier.check(traced, out_root / "traced")
    spans = tracing.read_spans(out_root / "traced" / "spans.tsv")
    metrics = {
        "cli.import_s": traced["import_s"],
        "cli.manifest_s": traced["manifest_s"],
        **tracing.layer_metrics(spans, traced["wall_s"]),
    }
    if threads > 1:
        pool = run_child(workload, seed, threads, out_root / "pool", "pool", config)
        verifier.check(pool, out_root / "pool")
        pool_spans = tracing.read_spans(out_root / "pool" / "spans.tsv")
        metrics.update(tracing.pool_metrics(pool_spans, spans, threads))
        metrics["engine.worker_rss_mb"] = pool["worker_rss_mb"]
    else:
        metrics.update({
            "engine.pools": 0,
            "engine.serial_batches": metrics["engine.batches"],
            "engine.pool_overhead_s": 0.0,
            "engine.worker_rss_mb": plain["root_rss_mb"],
        })
    table = run_child(workload, seed, 1, out_root / "kernels", "kernels")
    if table["exit_code"] != 0:
        raise RuntimeError(f"kernel table failed (see {out_root / 'kernels' / 'child.log'})")
    metrics.update(table["kernels"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    verifier.finish()

    expected = traced.get("expected", {})
    for name in ("engine.rep_blocks", "engine.chunks", "engine.kernel_calls", "harness.cells"):
        if metrics[name] != expected.get(name):
            verifier.fail(f"count {name}={metrics[name]}, expected {expected.get(name)}")
    print(f"{workload}: traced {traced['wall_s']:.3f} s vs plain {plain['wall_s']:.3f} s at 1 worker; "
          f"kernel table base {kernels.WIDTH} elements per call")
    metrics.pop("engine.batches")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "aptest" / "__init__.py").is_file():
        print(f"error: no aptest sources under {root / 'src'}", file=sys.stderr)
        return 2
    base = root / ".perfbench_out"
    out_root = base / args.workload / f"seed{args.seed}-trace{args.trace}"
    if out_root.exists():
        shutil.rmtree(out_root)
    out_root.mkdir(parents=True)
    verifier = Verifier(args.workload, args.seed, base)

    try:
        if args.trace:
            values = traced_run(args.workload, args.seed, out_root, verifier)
        else:
            values = timed_run(args.workload, args.seed, args.seconds, out_root, verifier)
    except (OSError, KeyError, ValueError, RuntimeError) as exc:
        # A pass that produced nothing to measure: report the failure, no metrics.
        verifier.attempted = max(verifier.attempted, 1)
        verifier.fail(f"benchmark could not measure: {type(exc).__name__}: {exc}")
        values = {}
    units = {name: _layer_unit(name) if args.trace else UNITS[name] for name in values}

    for problem in verifier.problems[:50]:
        print(f"check failed: {problem}")
    ratio = verifier.failed / max(verifier.attempted, 1)
    print(f"{args.workload}: {verifier.attempted} operations, {verifier.failed} failed, "
          f"failed_ops_ratio {ratio:.6g}; output digests {sorted(d[:16] for d in verifier.digests)}")
    for name, value in values.items():
        print(f"  {name:<34} {value:>16.6f} {units[name]}")
    result = {
        "correct": verifier.failed == 0 and not verifier.problems,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_ns", "ns"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
