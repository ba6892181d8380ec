"""Regenerate ``reference/<workload>.json`` from the current sources.

    python3 perfbench/make_reference.py [workload ...]

CLI workloads: the workload runs at five reference seeds; each report value
is stored as [mean, tolerance], the tolerance being six times the larger of
its Monte Carlo standard error and its spread over those seeds, times
sqrt(2) because a checked run is as noisy as the reference.  Critical
values get a band of null quantiles from an independent null sample, at
alpha -+ 7 standard errors of a quantile's tail level.  observed-analysis:
mean and spread of each per-trial statistic over a large seeded sample.

Only rerun this when a change is meant to alter the statistics.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import observed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REF_SEEDS = (101, 102, 103, 104, 105)
NULL_SEED = 987654321
OBSERVED_TRIALS = 1000
K = 6.0 * math.sqrt(2.0)


def _subject_sd(row: dict) -> float:
    family = row["family"]
    if family == "exponential":
        return 1.0 / min(float(row["param_ctrl"]), float(row["param_exp"]))
    if family == "bernoulli":
        return 0.5
    return 1.0  # normal-grid outcomes have unit standard deviation


def _row_tolerances(values: list[dict]) -> dict:
    first = values[0]
    n = int(first["n_eval"])
    total_n = int(first["N"])
    out = {}
    rates = [float(v["rejection_rate"]) for v in values]
    p = statistics.fmean(rates)
    se = math.sqrt(max(p * (1 - p), 1.0 / n) / n)
    out["rejection_rate"] = [p, K * max(se, statistics.stdev(rates)) + 1.0 / n]
    pct = [float(v["pct_better_mean"]) for v in values]
    pct_sd = statistics.fmean(float(v["pct_better_sd"]) for v in values)
    out["pct_better_mean"] = [statistics.fmean(pct), K * max(pct_sd / math.sqrt(n), statistics.stdev(pct))]
    outcome = [float(v["mean_outcome"]) for v in values]
    ctrl, exp = float(first["param_ctrl"]), float(first["param_exp"])
    if first["family"] == "exponential":
        gap = abs(1.0 / ctrl - 1.0 / exp)
    else:
        gap = abs(exp - ctrl)
    per_subject = math.hypot(_subject_sd(first) / math.sqrt(total_n), gap * pct_sd / 100.0)
    se_outcome = per_subject / math.sqrt(n)
    if first["family"] == "bernoulli":  # reported as successes per trial
        se_outcome *= total_n
    out["mean_outcome"] = [statistics.fmean(outcome), K * max(se_outcome, statistics.stdev(outcome))]
    return out


def cli_reference(workload: str) -> dict:
    out_root = HERE.parent / ".perfbench_out" / "reference" / workload
    out_root.mkdir(parents=True, exist_ok=True)
    threads = workloads.threads_for(workload)
    per_seed = []
    for seed in REF_SEEDS:
        config = run._prepare(workload, seed, out_root)
        record = run.run_child(workload, seed, threads, out_root / f"seed{seed}", "plain", config)
        if record["exit_code"] != 0:
            raise SystemExit(f"{workload} seed {seed} failed")
        per_seed.append(out_root / f"seed{seed}" / "tsv")
        print(f"{workload} seed {seed}: {record['wall_s']:.1f} s", flush=True)

    from aptest import cli
    from aptest.calibration import NullSpec, critical_value, simulate_null_distribution

    config = run._prepare(workload, NULL_SEED, out_root)
    argv = workloads.cli_argv(workload, NULL_SEED, threads, out_root / "unused", config)
    specs = [job.scenario for job in cli.build_manifest(cli.build_parser().parse_args(argv)).jobs]
    scenarios = {}
    for spec in specs:
        rows: dict[str, list[dict]] = {}
        for tsv in per_seed:
            header = (tsv / f"{spec.name}_report.tsv").read_text(encoding="utf-8").splitlines()[0]
            n_eval = int(header.split("replicates_eval=")[1].split()[0])
            for row in checks.read_tsv(tsv / f"{spec.name}_report.tsv"):
                row["n_eval"] = n_eval
                rows.setdefault(checks.row_key(row), []).append(row)
        flags: dict[str, set[int]] = {}
        for tsv in per_seed:
            path = tsv / f"{spec.name}_critical_values.tsv"
            if path.exists():
                for row in checks.read_tsv(path):
                    flags.setdefault(row["test"], set()).add(int(row["degenerate_max"]))
        critical = {}
        roles = [(0, spec.design, [e for e in spec.tests if not e.on_er])]
        if any(e.on_er for e in spec.tests):
            roles.append((1, spec.er_design, [e for e in spec.tests if e.on_er]))
        for role, design, entries in roles:
            tests = tuple(e.spec for e in entries if e.mode == "calibrated")
            if not tests:
                continue
            null = NullSpec(design, spec.null_model, spec.prior, spec.replicates_calib, NULL_SEED)
            dists = simulate_null_distribution(null, tests, threads=threads, stream=(role,))
            for name, dist in dists.items():
                if flags.get(name, set()) != {int(critical_value(dist, spec.alpha).degenerate_max)}:
                    raise SystemExit(f"{spec.name}.{name}: degenerate_max differs between seeds")
                r = dist.samples.size
                delta = 7.0 * math.sqrt(spec.alpha * (1 - spec.alpha) * (1.0 / spec.replicates_calib + 1.0 / r))

                def q(level):
                    allowed = min(max(int(math.floor(level * r)), 0), r - 1)
                    return float(dist.samples[r - allowed - 1])

                critical[name] = {
                    "q_band": [q(spec.alpha + delta), q(max(spec.alpha - delta, 0.0))],
                    "degenerate_max": flags[name].pop(),
                }
        scenarios[spec.name] = {
            "rows": {key: _row_tolerances(values) for key, values in sorted(rows.items())},
            "critical_values": critical,
        }
    return {"workload": workload, "seeds": list(REF_SEEDS), "null_seed": NULL_SEED, "scenarios": scenarios}


def observed_reference() -> dict:
    out = HERE.parent / ".perfbench_out" / "reference" / "observed-analysis"
    record = run.run_child("observed-analysis", REF_SEEDS[0], 1, out, "plain", trials=OBSERVED_TRIALS)
    if record["exit_code"] != 0:
        raise SystemExit("observed-analysis reference run failed")
    columns = (*observed.AP_TESTS, "comparator", "n1")
    families = {}
    for fam in observed.FAMILIES:
        rows = [r for r in checks.read_tsv(out / "trials.tsv") if r["family"] == fam and r["prior"] == "integer"]
        families[fam] = {
            c: [statistics.fmean(float(r[c]) for r in rows), statistics.stdev(float(r[c]) for r in rows), len(rows)]
            for c in columns
        }
    return {"workload": "observed-analysis", "seed": REF_SEEDS[0], "families": families}


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for name in names:
        doc = observed_reference() if name == "observed-analysis" else cli_reference(name)
        path = checks.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
