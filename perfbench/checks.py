"""Correctness checks on the files a workload writes.

CLI workloads are compared with ``reference/<workload>.json``: rejection
rates, patient benefit and mean outcome within the tolerances stored there
(several Monte Carlo standard errors), critical values inside a band of
null quantiles, ``degenerate_max`` flags equal, and ``achieved_alpha <=
alpha`` everywhere.  observed-analysis is checked against closed forms the
benchmark computes itself and against reference means of its statistics.

An operation is one scenario report (CLI) or one analysed trial or pooled
calibration (observed-analysis); any failed check fails its operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import observed

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def digest(directory: Path) -> str:
    """SHA-256 over the names and bytes of every TSV below ``directory``."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.tsv")):
        if path.name == "spans.tsv":
            continue
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def read_tsv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]


def row_key(row: dict) -> str:
    return f"{row['design']}|{float(row['param_exp']):.10g}|{row['test']}"


def check_cli(workload: str, out_dir: Path, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one CLI run's output directory."""
    problems: list[str] = []
    failed = 0
    for scenario, ref in reference["scenarios"].items():
        before = len(problems)
        try:
            _check_scenario(scenario, ref, out_dir, problems)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"{scenario}: unreadable output ({type(exc).__name__}: {exc})")
        failed += len(problems) > before
    return len(reference["scenarios"]), failed, problems


def _close(name: str, value: float, ref: list, problems: list[str]) -> None:
    mean, tol = ref
    if not abs(value - mean) <= tol:
        problems.append(f"{name}={value:.6g} outside {mean:.6g} +- {tol:.3g}")


def _check_scenario(scenario: str, ref: dict, out_dir: Path, problems: list[str]) -> None:
    rows = read_tsv(out_dir / f"{scenario}_report.tsv")
    seen = set()
    for row in rows:
        key = row_key(row)
        seen.add(key)
        expected = ref["rows"].get(key)
        if expected is None:
            problems.append(f"{scenario}: unexpected row {key}")
            continue
        for column in ("rejection_rate", "pct_better_mean", "mean_outcome"):
            _close(f"{scenario}[{key}].{column}", float(row[column]), expected[column], problems)
    missing = set(ref["rows"]) - seen
    if missing:
        problems.append(f"{scenario}: missing rows {sorted(missing)}")
    if not ref["critical_values"]:
        return
    cvs = {r["test"]: r for r in read_tsv(out_dir / f"{scenario}_critical_values.tsv")}
    if set(cvs) != set(ref["critical_values"]):
        problems.append(f"{scenario}: critical values for {sorted(cvs)}")
    for test, expected in ref["critical_values"].items():
        cv = cvs.get(test)
        if cv is None:
            continue
        q, achieved = float(cv["q_alpha"]), float(cv["achieved_alpha"])
        degenerate = int(cv["degenerate_max"])
        if not achieved <= float(cv["alpha"]):
            problems.append(f"{scenario}.{test}: achieved_alpha {achieved} > alpha")
        if degenerate != expected["degenerate_max"]:
            problems.append(f"{scenario}.{test}: degenerate_max={degenerate}")
        lo, hi = expected["q_band"]
        if not degenerate and not lo <= q <= hi:
            problems.append(f"{scenario}.{test}: q_alpha={q:.10g} outside [{lo:.10g}, {hi:.10g}]")


# ---------------------------------------------------------------------------
# observed-analysis
# ---------------------------------------------------------------------------

#: |reported - independent| allowed for the final superiority probability.
CLOSED_TOL = 1e-9
QUADRATURE_TOL = 1e-7  # aptest accepts a quadrature error estimate up to 1e-8


def independent_probability(fam: str, prior_kind: str, n1, s1, n0, s0) -> float:
    """P(experimental better) from formulas that do not go through aptest."""
    from scipy import special, stats

    if fam == "exponential":
        shape, rate = observed.FAMILIES[fam][2] if prior_kind == "integer" else observed.JEFFREYS[fam]
        a1, b1, a0, b0 = shape + n1, rate + s1, shape + n0, rate + s0
        # P(X1 > X0) = I_{b0/(b0+b1)}(a0, a1) holds for real shapes.
        p = float(special.betainc(a0, a1, b0 / (b0 + b1)))
    elif fam == "bernoulli":
        al, be = observed.FAMILIES[fam][2] if prior_kind == "integer" else observed.JEFFREYS[fam]
        a1, b1, a0, b0 = al + s1, be + n1 - s1, al + s0, be + n0 - s0
        if prior_kind == "integer":
            a1, b1, a0, b0 = (int(round(v)) for v in (a1, b1, a0, b0))
            # Altham's hypergeometric tail for integer beta parameters.
            p = float(stats.hypergeom.sf(a0 - 1, a1 + b1 + a0 + b0 - 2, a0 + b0 - 1, a0 + a1 - 1))
        else:
            # E[F0(X1)] over the quantiles of X1, by tanh-sinh quadrature, which
            # copes with the integrand's endpoint singularities; the upper half
            # uses isf so that quantiles near 1 keep their precision.
            h = 1.0 / 32.0
            t = np.arange(-3.5, 3.5 + h / 2, h)
            s = 0.5 * np.pi * np.sinh(t)
            q = np.where(
                t < 0,
                stats.beta.ppf(1.0 / (1.0 + np.exp(-2.0 * s)), a1, b1),
                stats.beta.isf(1.0 / (1.0 + np.exp(2.0 * s)), a1, b1),
            )
            w = 0.25 * np.pi * np.cosh(t) / np.cosh(s) ** 2
            p = float(h * np.sum(w * stats.beta.cdf(q, a0, b0)))
    else:
        mean0, var0 = observed.FAMILIES[fam][2]
        sd2 = observed.NORMAL_SD ** 2
        v1 = 1.0 / (1.0 / var0 + n1 / sd2)
        v0 = 1.0 / (1.0 / var0 + n0 / sd2)
        m1 = v1 * (mean0 / var0 + s1 / sd2)
        m0 = v0 * (mean0 / var0 + s0 / sd2)
        p = float(special.ndtr((m1 - m0) / math.sqrt(v1 + v0)))
    return min(max(p, 1e-15), 1.0 - 1e-15)


def check_observed(out_dir: Path, reference: dict, trials: int) -> tuple[int, int, list[str]]:
    problems: list[str] = []
    plan = observed.trial_plan(trials)
    rows = {}
    for row in read_tsv(out_dir / "trials.tsv"):
        rows[(row["family"], int(row["trial"]), row["prior"])] = row
    bad = set()
    by_family: dict[str, dict[str, list[float]]] = {}
    for fam, i, prior_kind in plan:
        row = rows.get((fam, i, prior_kind))
        name = f"{fam}[{i},{prior_kind}]"
        if row is None or row.get("design") == "error":
            problems.append(f"{name}: no result")
            bad.add((fam, i, prior_kind))
            continue
        before = len(problems)
        n1, n0 = int(row["n1"]), int(row["n0"])
        s1, s0 = float(row["s1"]), float(row["s0"])
        if n1 + n0 != int(row["N"]):
            problems.append(f"{name}: n1 + n0 != N")
        if not 0.0 < float(row["min_prob"]) <= float(row["max_prob"]) < 1.0:
            problems.append(f"{name}: probability outside (0, 1)")
        p = independent_probability(fam, prior_kind, n1, s1, n0, s0)
        tol = CLOSED_TOL if prior_kind == "integer" else QUADRATURE_TOL
        if not abs(float(row["final_prob"]) - p) <= tol:
            problems.append(f"{name}: final probability {row['final_prob']} vs {p!r}")
        if len(problems) > before:
            bad.add((fam, i, prior_kind))
        if prior_kind == "integer":
            stats_of = by_family.setdefault(fam, {})
            for column in (*observed.AP_TESTS, "comparator", "n1"):
                stats_of.setdefault(column, []).append(float(row[column]))

    # Distribution check: a family whose statistics drift fails all its trials.
    for fam, columns in by_family.items():
        for column, values in columns.items():
            mean, sd, k_ref = reference["families"][fam][column]
            k = len(values)
            tol = 6.0 * sd * math.sqrt(1.0 / k + 1.0 / k_ref) + 1e-12
            got = sum(values) / k
            if not abs(got - mean) <= tol:
                problems.append(f"{fam}.{column}: mean {got:.6g} outside {mean:.6g} +- {tol:.3g}")
                bad.update((f, i, pk) for f, i, pk in plan if f == fam)

    pooled_bad = _check_pooled(out_dir, problems)
    return len(plan) + len(observed.FAMILIES), len(bad) + pooled_bad, problems


def _check_pooled(out_dir: Path, problems: list[str]) -> int:
    rows = read_tsv(out_dir / "pooled.tsv")
    trial_rows = {
        r["family"]: r for r in read_tsv(out_dir / "trials.tsv")
        if r["trial"] == "0" and r["prior"] == "integer" and r["design"] != "error"
    }
    failed = 0
    for fam in observed.FAMILIES:
        before = len(problems)
        fam_rows = [r for r in rows if r["family"] == fam]
        names = {r["test"] for r in fam_rows}
        if names != {*observed.AP_TESTS, observed.FAMILIES[fam][3]}:
            problems.append(f"pooled {fam}: tests {sorted(names)}")
        trial = trial_rows.get(fam)
        for r in fam_rows:
            if r["test"] == "error":
                continue
            achieved = float(r["achieved_alpha"])
            if not achieved <= observed.ALPHA:
                problems.append(f"pooled {fam}.{r['test']}: achieved_alpha {achieved} > alpha")
            if r["test"] in ("timedirect", "lastblock") and (
                int(r["degenerate_max"]) or achieved < observed.ALPHA - 0.005
            ):
                problems.append(f"pooled {fam}.{r['test']}: achieved_alpha {achieved}")
            if trial is not None:
                n = int(trial["n1"]) + int(trial["n0"])
                total = float(trial["s1"]) + float(trial["s0"])
                estimate = n / total if fam == "exponential" else total / n
                if fam == "bernoulli" and estimate in (0.0, 1.0):
                    estimate = (total + 0.5) / (n + 1.0)
                if not math.isclose(float(r["pooled_param"]), estimate, rel_tol=1e-12, abs_tol=1e-12):
                    problems.append(f"pooled {fam}: parameter {r['pooled_param']} vs {estimate!r}")
        failed += len(problems) > before
    return failed
