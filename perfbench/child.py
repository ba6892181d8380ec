"""One aptest process of a workload, started and measured by ``run.py``.

Modes:
  setup   import aptest and build the manifest (or analysis plan), then exit
  plain   the workload as a user runs it: ``aptest`` with the workload's flags
  traced  the same with spans around every layer (run it at one worker)
  pool    the same with spans around batches only, as the parent sees them
  kernels the vectorized kernel table on seed-generated posterior states

Writes ``child.json`` (timestamps, counts) and, when traced, ``spans.tsv``
into ``--out``.  Every time is read from clocks; nothing is estimated.
"""

import time

T_START = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--mode", default="plain",
                        choices=("setup", "plain", "traced", "pool", "kernels"))
    parser.add_argument("--trials", type=int, default=None)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    record = {"t_start": T_START, "mode": args.mode}

    if args.mode == "kernels":
        import kernels

        record["kernels"] = kernels.table(args.seed)
        return _finish(args, record, None, 0)

    started = time.perf_counter()
    if args.workload == "observed-analysis":
        import aptest  # noqa: F401
        import observed

        record["import_s"] = time.perf_counter() - started
        started = time.perf_counter()
        trials = args.trials or observed.TRIALS
        analysis = observed.Analysis(args.seed, trials)
        record["manifest_s"] = time.perf_counter() - started
        record["t_setup"] = time.time()
        record["expected"] = observed.expected_counts(trials)
        record["trials_per_family"] = trials
    else:
        from aptest import cli

        record["import_s"] = time.perf_counter() - started
        started = time.perf_counter()
        argv = workloads.cli_argv(args.workload, args.seed, args.threads, args.out / "tsv", args.config)
        manifest = cli.build_manifest(cli.build_parser().parse_args(argv))
        record["manifest_s"] = time.perf_counter() - started
        record["t_setup"] = time.time()
        scenarios = [job.scenario for job in manifest.jobs]
        record["expected"] = workloads.plan_counts(workloads.batch_plan(scenarios))
        record["expected"]["ops"] = len(scenarios)
    if args.mode == "setup":
        return _finish(args, record, None, 0)

    tracer = None
    if args.mode in ("traced", "pool"):
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{args.mode}")
        if args.mode == "traced":
            tracing.install_all(tracer)
        else:
            tracing.install_pool_layer(tracer)

    started = time.perf_counter()
    if args.workload == "observed-analysis":
        analysis.run(args.out)
        code = 0
    else:
        from aptest.errors import ConfigError, NumericalError

        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
        try:
            code = cli.run(manifest)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            code = cli.EXIT_CONFIG
        except NumericalError as exc:
            print(f"numerical error: {exc}", file=sys.stderr)
            code = cli.EXIT_NUMERICAL
    record["run_s"] = time.perf_counter() - started
    return _finish(args, record, tracer, code)


def _finish(args, record: dict, tracer, code: int) -> int:
    if tracer is not None:
        tracer.write(args.out / "spans.tsv")
    record["code"] = code
    record["t_end"] = time.time()
    (args.out / "child.json").write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
