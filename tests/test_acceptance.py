"""Acceptance suite: every operating-characteristic guarantee at desk scale.

Desk scale means 1e5 calibration and 1e4 evaluation replicates per cell
(Monte Carlo SE below half a percentage point).  Each criterion prints one
PASS line with its measured values; run with ``pytest -s`` to see them.

Three published table cells are asserted as written but expected to fail,
and are marked xfail with the analysis in their docstrings: the
integer-valued AP test cells (reproducing them requires a randomized test,
which this package deliberately refuses to implement) and the
equal-randomization mean-time cell of the time-to-event example (the
published figure equals the observed-study average, not a quantity the
stated simulation model can produce).
"""

import dataclasses
import math

import numpy as np
import pytest

from aptest.allocation import DesignConfig, StandardBRAR, TunedBRAR
from aptest.calibration import NullSpec, calibrate
from aptest.cli import main
from aptest.engine import simulate_batch
from aptest.harness import (
    CALIBRATED,
    NOMINAL,
    ScenarioSpec,
    TestEntry,
    patient_benefit,
    run_scenario,
    sweep_scenarios,
)
from aptest.models import (
    ArmPosterior,
    Bernoulli,
    BetaPrior,
    Exponential,
    GammaPrior,
    NormalKnownVar,
    NormalPrior,
    OutcomeModel,
    beta_superiority_closed,
    gamma_superiority_vec,
    superiority_probability,
)
from aptest.presets import build_preset
from aptest.stats import (
    ComparatorTest,
    fisher_exact_one_sided,
    lastblock_ap_test,
    original_ap_test,
    timedirect_ap_test,
)
from tests.test_models import (
    quadrature_beta_superiority,
    quadrature_gamma_superiority,
)

SEED = 20240809
CALIB_REPS = 10**5
EVAL_REPS = 10**4
#: tolerances are pinned at the desk evaluation budget (1e4 replicates);
#: several checks evaluate with more replicates than that, which only
#: stabilizes the estimate the fixed tolerance is applied to
TIGHT_EVAL_REPS = 3 * 10**4
TOL_TYPE1 = 3 * math.sqrt(0.05 * 0.95 / EVAL_REPS)

GAMMA_PRIOR = GammaPrior(1.0, 0.001)
BETA_PRIOR = BetaPrior(1.0, 1.0)
NORMAL_PRIOR = NormalPrior(0.0, 1e6)


def _report(criterion: int, description: str, checks: list[tuple[str, bool, str]]):
    failed = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"\n[acceptance criterion {criterion}] {status} - {description}")
    for label, ok, detail in checks:
        print(f"    {'ok ' if ok else 'BAD'} {label}: {detail}")
    assert not failed, f"criterion {criterion} failed: {failed}"


# ---------------------------------------------------------------------------
# Criterion 1: calibrated continuous AP tests hold their level everywhere
# ---------------------------------------------------------------------------


def test_criterion_1_calibration_correctness():
    """Fresh-seed type I error of 5% for lastblock and timedirect under every
    outcome family and both adaptive designs."""
    design_args = dict(total_n=60, burn_in=10, block_size=5, num_blocks=10)
    cases = [
        ("exponential", OutcomeModel(Exponential(1.0, 1.0)), GAMMA_PRIOR),
        ("bernoulli", OutcomeModel(Bernoulli(0.5, 0.5)), BETA_PRIOR),
        ("normal", OutcomeModel(NormalKnownVar(0.0, 0.0, 1.0, 1.5)), NORMAL_PRIOR),
    ]
    tests = (timedirect_ap_test(), lastblock_ap_test())
    checks = []
    for fam, null_model, prior in cases:
        for label, kind in (("standard", StandardBRAR()), ("tuned", TunedBRAR())):
            design = DesignConfig(**design_args, design=kind)
            null = NullSpec(design, null_model, prior, replicates=CALIB_REPS, seed=SEED)
            cvs = calibrate(null, tests, alpha=0.05)
            fresh = simulate_batch(
                design, null_model, prior, tests, TIGHT_EVAL_REPS, seed=SEED + 1, stream=(5,)
            )
            for name in ("timedirect", "lastblock"):
                rate = float((fresh.statistics[name] > cvs[name].q_alpha).mean())
                checks.append(
                    (
                        f"{fam}/{label}/{name}",
                        abs(rate - 0.05) <= TOL_TYPE1,
                        f"type I {rate:.4f} (target 0.05 +/- {TOL_TYPE1:.4f})",
                    )
                )
    _report(1, "calibrated type I error at 5% across families and designs", checks)


# ---------------------------------------------------------------------------
# Criterion 2: patient-benefit table at the 50% treatment effect
# ---------------------------------------------------------------------------


def test_criterion_2_patient_benefit_table():
    """Percent on the better arm and mean time to event for the phase-2 and
    phase-3 layouts at a 1.5 rate ratio (the published tables' 50% effect)."""
    model = OutcomeModel(Exponential(1.0, 1.5))
    targets = {
        ("phase2", "standard"): (79.0, 2.0, 14.0, 3.0, 0.74, 0.02),
        ("phase2", "tuned"): (73.0, 2.0, None, None, 0.76, 0.02),
        ("phase3", "standard"): (91.0, 1.0, 4.3, 1.0, 0.70, 0.01),
        ("phase3", "tuned"): (86.0, 1.0, None, None, 0.72, 0.01),
    }
    layouts = {"phase2": (100, 10, 1), "phase3": (500, 50, 10)}
    checks = []
    for (phase, label), (pct, pct_tol, sd, sd_tol, time_, time_tol) in targets.items():
        n, burn, block = layouts[phase]
        kind = StandardBRAR() if label == "standard" else TunedBRAR()
        design = DesignConfig(n, burn, block, (n - burn) // block, design=kind)
        batch = simulate_batch(
            design, model, GAMMA_PRIOR, (), EVAL_REPS, seed=SEED, stream=(2,)
        )
        b = patient_benefit(batch, model, design)
        checks.append(
            (
                f"{phase}/{label} pct",
                abs(b.pct_on_better_mean - pct) <= pct_tol,
                f"{b.pct_on_better_mean:.1f}% (target {pct} +/- {pct_tol})",
            )
        )
        if sd is not None:
            checks.append(
                (
                    f"{phase}/{label} sd",
                    abs(b.pct_on_better_sd - sd) <= sd_tol,
                    f"{b.pct_on_better_sd:.1f} (target {sd} +/- {sd_tol})",
                )
            )
        checks.append(
            (
                f"{phase}/{label} mean time",
                abs(b.mean_outcome - time_) <= time_tol,
                f"{b.mean_outcome:.3f} (target {time_} +/- {time_tol})",
            )
        )
    _report(2, "patient benefit and mean outcome vs the published table", checks)


# ---------------------------------------------------------------------------
# Criteria 3 and 4 share the strict-control phase-3 evaluation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def phase3_reports():
    reports = {}
    for label, kind in (("standard", StandardBRAR()), ("tuned", TunedBRAR())):
        spec = ScenarioSpec(
            name=f"acceptance-phase3-{label}",
            design=DesignConfig(500, 50, 10, 45, design=kind),
            prior=GAMMA_PRIOR,
            null_model=OutcomeModel(Exponential(1.0, 1.0)),
            alternative_models=tuple(
                OutcomeModel(Exponential(1.0, r)) for r in (1.2, 1.4, 1.6, 1.8, 2.0)
            ),
            tests=(
                TestEntry(original_ap_test(), mode=CALIBRATED),
                TestEntry(original_ap_test(name="original-nominal"), mode=NOMINAL),
                TestEntry(timedirect_ap_test(), mode=CALIBRATED),
                TestEntry(lastblock_ap_test(), mode=CALIBRATED),
            ),
            alpha=0.05,
            replicates_eval=EVAL_REPS,
            replicates_calib=CALIB_REPS,
            seed=SEED,
        )
        reports[label] = run_scenario(spec)
    return reports


def test_criterion_3_power_ordering(phase3_reports):
    """lastblock >= timedirect >= original at strict control, with at least
    a 20-point lastblock-original gap somewhere on the grid.

    Orderings are asserted up to max(3 combined Monte Carlo SEs, one
    percentage point): once both powers saturate above ~0.99 the two
    continuous statistics are equivalent to within fractions of a point,
    and the sign of their difference is not a stable property there.
    """
    checks = []
    for label, report in phase3_reports.items():
        best_gap = 0.0
        for r in (1.4, 1.6, 1.8, 2.0):
            cell = f"exponential(1,{r:g})"
            p_last = report.rejection_rate(cell, "lastblock")
            p_time = report.rejection_rate(cell, "timedirect")
            p_orig = report.rejection_rate(cell, "original")
            se = lambda p: math.sqrt(p * (1 - p) / EVAL_REPS)
            tol_lt = max(3 * math.hypot(se(p_last), se(p_time)), 0.01)
            tol_to = max(3 * math.hypot(se(p_time), se(p_orig)), 0.01)
            checks.append(
                (
                    f"{label} r={r} lastblock>=timedirect",
                    p_last >= p_time - tol_lt,
                    f"{p_last:.3f} vs {p_time:.3f}",
                )
            )
            checks.append(
                (
                    f"{label} r={r} timedirect>=original",
                    p_time >= p_orig - tol_to,
                    f"{p_time:.3f} vs {p_orig:.3f}",
                )
            )
            best_gap = max(best_gap, p_last - p_orig)
        checks.append(
            (
                f"{label} lastblock-original gap",
                best_gap >= 0.20,
                f"max gap {best_gap:.3f} (need >= 0.20)",
            )
        )
    _report(3, "strict-control power ordering of the AP family", checks)


def test_criterion_4_integer_ap_pathology(phase3_reports):
    """The uncalibrated integer AP test rejects about three times too often;
    after strict calibration its power collapses below 0.45 everywhere."""
    checks = []
    for label, report in phase3_reports.items():
        t1 = report.rejection_rate("exponential(1,1)", "original-nominal")
        checks.append(
            (
                f"{label} nominal type I",
                abs(t1 - 0.15) <= 0.03,
                f"{t1:.4f} (target 0.15 +/- 0.03)",
            )
        )
        assert report.critical_values["original"].degenerate_max
        for r in (1.2, 1.4, 1.6, 1.8, 2.0):
            p = report.rejection_rate(f"exponential(1,{r:g})", "original")
            checks.append(
                (f"{label} strict power r={r}", p < 0.45, f"{p:.3f} (must stay < 0.45)")
            )
    _report(4, "integer AP test: 3x inflation unadjusted, low power adjusted", checks)


# ---------------------------------------------------------------------------
# Criterion 5: type I error versus sample size, fully sequential
# ---------------------------------------------------------------------------


def test_criterion_5_type1_curve_shape():
    """Uncalibrated LR inflates and keeps growing with N under adaptive
    allocation while the equal-randomization LR sits at 5%."""
    template = ScenarioSpec(
        name="acceptance-type1",
        design=DesignConfig(100, 10, 1, 90),
        prior=GAMMA_PRIOR,
        null_model=OutcomeModel(Exponential(1.0, 1.0)),
        tests=(
            TestEntry(ComparatorTest("lr", "lr"), mode=NOMINAL),
            TestEntry(ComparatorTest("lr", "lr-er"), mode=NOMINAL, on_er=True),
        ),
        alpha=0.05,
        replicates_eval=EVAL_REPS,
        replicates_calib=CALIB_REPS,
        seed=SEED,
    )
    grid = (100, 200, 500, 1000)
    reports = [run_scenario(spec) for spec in sweep_scenarios(template, grid)]
    checks = []
    rates = []
    for n, report in zip(grid, reports):
        brar = report.rejection_rate("exponential(1,1)", "lr")
        er = report.rejection_rate("exponential(1,1)", "lr-er")
        rates.append(brar)
        checks.append(
            (
                f"N={n} adaptive LR inflated",
                brar > 0.05 + TOL_TYPE1,
                f"{brar:.4f} (> 0.05 by 3 SE)",
            )
        )
        checks.append(
            (
                f"N={n} ER LR at level",
                abs(er - 0.05) <= TOL_TYPE1,
                f"{er:.4f} (0.05 +/- {TOL_TYPE1:.4f})",
            )
        )
    se_pair = 3 * math.sqrt(2 * 0.09 * 0.91 / EVAL_REPS)
    for i in range(len(grid) - 1):
        checks.append(
            (
                f"non-decreasing {grid[i]}->{grid[i + 1]}",
                rates[i + 1] >= rates[i] - se_pair,
                f"{rates[i]:.4f} -> {rates[i + 1]:.4f}",
            )
        )
    _report(5, "LR type I curve: inflation under adaptation, 5% under ER", checks)


# ---------------------------------------------------------------------------
# Criterion 6: the two empirical examples against their published tables
# ---------------------------------------------------------------------------


def _run_empirical(preset: str):
    reports = {}
    for job in build_preset(preset, seed=SEED):
        spec = dataclasses.replace(job.scenario, replicates_eval=TIGHT_EVAL_REPS)
        reports[spec.name.rsplit("-", 1)[-1]] = run_scenario(spec)
    return reports


@pytest.fixture(scope="module")
def empirical_exponential_reports():
    return _run_empirical("empirical-exponential-desk")


@pytest.fixture(scope="module")
def empirical_binary_reports():
    return _run_empirical("empirical-binary-desk")


EXP_ALT = "exponential(0.002,0.0035)"
BIN_ALT = "bernoulli(0.7,0.9)"
POWER_TOL = 2.5


def test_criterion_6_exponential_example(empirical_exponential_reports):
    """Time-to-event example: strict-control power, patient benefit, and mean
    times for the adaptive designs (the integer AP cells and the ER time
    cell are covered by the dedicated xfail tests)."""
    targets = {
        "standard": {"timedirect": 66.4, "lr": 57.7, "lastblock": 73.2, "lr-er": 87.2},
        "tuned": {"timedirect": 81.2, "lr": 75.4, "lastblock": 86.6, "lr-er": 87.2},
    }
    benefit_targets = {"standard": (86.0, 315.0), "tuned": (80.0, 330.0)}
    checks = []
    for label, report in empirical_exponential_reports.items():
        for test, target in targets[label].items():
            power = 100.0 * report.rejection_rate(EXP_ALT, test)
            checks.append(
                (
                    f"{label}/{test} power",
                    abs(power - target) <= POWER_TOL,
                    f"{power:.1f}% (target {target} +/- {POWER_TOL})",
                )
            )
        pct, mean_time = benefit_targets[label]
        row = report.row(EXP_ALT, "lastblock")
        checks.append(
            (
                f"{label} benefit",
                abs(row.pct_better_mean - pct) <= 2.0,
                f"{row.pct_better_mean:.1f}% (target {pct} +/- 2)",
            )
        )
        checks.append(
            (
                f"{label} mean time",
                abs(row.mean_outcome - mean_time) <= 5.0,
                f"{row.mean_outcome:.0f}s (target {mean_time} +/- 5)",
            )
        )
    _report(6, "time-to-event empirical example vs its published table", checks)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published integer-AP power (26.2% / 28.4%) is reachable only by a "
        "randomized test: the statistic's null tail at its maximum exceeds 5%, "
        "so the deterministic strictly-calibrated test never rejects and its "
        "power is exactly 0; randomized tests are deliberately out of scope"
    ),
)
def test_criterion_6_exponential_integer_ap_cells(empirical_exponential_reports):
    targets = {"standard": 26.2, "tuned": 28.4}
    for label, report in empirical_exponential_reports.items():
        power = 100.0 * report.rejection_rate(EXP_ALT, "original")
        assert abs(power - targets[label]) <= POWER_TOL


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published ER mean time (376 s) equals the observed study's average "
        "(282 + 468) / 2 = 375, not a property of the stated rates: a 50/50 "
        "split of exponentials with means 1/0.0035 = 286 and 1/0.002 = 500 "
        "averages 393 s, outside 376 +/- 5 by arithmetic"
    ),
)
def test_criterion_6_exponential_er_mean_time(empirical_exponential_reports):
    report = empirical_exponential_reports["standard"]
    row = report.row(EXP_ALT, "lr-er")
    assert abs(row.mean_outcome - 376.0) <= 5.0


def test_criterion_6_binary_example(empirical_binary_reports):
    """Binary-endpoint example: power, benefit, and successes per trial."""
    targets = {
        "standard": {"timedirect": 59.3, "fisher": 60.6, "lastblock": 67.4, "fisher-er": 88.5},
        "tuned": {"timedirect": 75.8, "fisher": 79.4, "lastblock": 82.5, "fisher-er": 88.5},
    }
    success_targets = {"standard": 106.0, "tuned": 104.0}
    checks = []
    for label, report in empirical_binary_reports.items():
        for test, target in targets[label].items():
            power = 100.0 * report.rejection_rate(BIN_ALT, test)
            checks.append(
                (
                    f"{label}/{test} power",
                    abs(power - target) <= POWER_TOL,
                    f"{power:.1f}% (target {target} +/- {POWER_TOL})",
                )
            )
        row = report.row(BIN_ALT, "lastblock")
        checks.append(
            (
                f"{label} successes per trial",
                abs(row.mean_outcome - success_targets[label]) <= 1.0,
                f"{row.mean_outcome:.1f} (target {success_targets[label]} +/- 1)",
            )
        )
        er_row = report.row(BIN_ALT, "fisher-er")
        checks.append(
            (
                "er successes per trial",
                abs(er_row.mean_outcome - 97.0) <= 1.0,
                f"{er_row.mean_outcome:.1f} (target 97 +/- 1)",
            )
        )
    _report(6, "binary empirical example vs its published table", checks)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published integer-AP power (22.0% / 26.6%) needs a randomized test, "
        "as in the exponential example; the strictly-calibrated deterministic "
        "test is degenerate at this design and never rejects"
    ),
)
def test_criterion_6_binary_integer_ap_cells(empirical_binary_reports):
    targets = {"standard": 22.0, "tuned": 26.6}
    for label, report in empirical_binary_reports.items():
        power = 100.0 * report.rejection_rate(BIN_ALT, "original")
        assert abs(power - targets[label]) <= POWER_TOL


# ---------------------------------------------------------------------------
# Criterion 7: closed forms against independent oracles
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    checks = []
    worst_gamma = 0.0
    for _ in range(100):
        a1, a0 = (int(v) for v in rng.integers(1, 100, 2))
        b1, b0 = (float(v) for v in rng.uniform(0.01, 40.0, 2))
        diff = abs(
            gamma_superiority_vec(a1, b1, a0, b0)
            - quadrature_gamma_superiority(a1, b1, a0, b0)
        )
        worst_gamma = max(worst_gamma, diff)
    checks.append(
        ("gamma closed vs quadrature", worst_gamma < 1e-8, f"max |diff| {worst_gamma:.2e}")
    )
    worst_beta = 0.0
    for _ in range(100):
        a1, b1, a0, b0 = (int(v) for v in rng.integers(1, 70, 4))
        diff = abs(
            beta_superiority_closed(a1, b1, a0, b0)
            - quadrature_beta_superiority(a1, b1, a0, b0)
        )
        worst_beta = max(worst_beta, diff)
    checks.append(
        ("beta closed vs quadrature", worst_beta < 1e-8, f"max |diff| {worst_beta:.2e}")
    )
    worst_normal = 0.0
    for _ in range(100):
        n1, n0 = (int(v) for v in rng.integers(1, 50, 2))
        s1, s0 = (float(v) for v in rng.normal(0, 5, 2))
        sds = (float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3)))
        p = superiority_probability(
            ArmPosterior(n1, s1), ArmPosterior(n0, s0), NORMAL_PRIOR, sds=sds
        )
        # oracle: Monte Carlo over the two posterior normals
        v1 = 1.0 / (1e-6 + n1 / sds[1] ** 2)
        v0 = 1.0 / (1e-6 + n0 / sds[0] ** 2)
        draws1 = rng.normal(v1 * s1 / sds[1] ** 2, math.sqrt(v1), 10**5)
        draws0 = rng.normal(v0 * s0 / sds[0] ** 2, math.sqrt(v0), 10**5)
        worst_normal = max(worst_normal, abs(p - (draws1 > draws0).mean()))
    checks.append(
        ("normal closed vs Monte Carlo", worst_normal < 0.01, f"max |diff| {worst_normal:.4f}")
    )

    worst_fisher = 0.0
    for n1 in range(1, 13):
        for n0 in range(1, 13):
            for s1 in range(n1 + 1):
                for s0 in range(n0 + 1):
                    total = s1 + s0
                    p_enum = sum(
                        math.comb(n1, k) * math.comb(n0, total - k)
                        for k in range(s1, min(n1, total) + 1)
                        if 0 <= total - k <= n0
                    ) / math.comb(n1 + n0, total)
                    diff = abs(fisher_exact_one_sided(n1, s1, n0, s0) - p_enum)
                    worst_fisher = max(worst_fisher, diff)
    checks.append(
        (
            "fisher vs full enumeration (margins <= 12)",
            worst_fisher < 1e-12,
            f"max |diff| {worst_fisher:.2e}",
        )
    )
    _report(7, "closed-form probabilities match independent oracles", checks)


# ---------------------------------------------------------------------------
# Criterion 8: calibration (in)sensitivity to the null parameter value
# ---------------------------------------------------------------------------


def test_criterion_8_calibration_parameter_sensitivity():
    """Exponential AP critical values are invariant to the null rate's
    magnitude (only the ratio matters); binary ones are not."""
    design = DesignConfig(60, 10, 5, 10)
    tests = (timedirect_ap_test(), lastblock_ap_test(), original_ap_test())
    dists = {}
    for rate in (1.0, 10.0):
        null = NullSpec(
            design, OutcomeModel(Exponential(rate, rate)), GAMMA_PRIOR,
            replicates=CALIB_REPS, seed=SEED,
        )
        from aptest.calibration import simulate_null_distribution

        dists[rate] = simulate_null_distribution(null, tests, stream=(int(rate),))
    checks = []
    se3 = 3 * math.sqrt(2 * 0.05 * 0.95 / CALIB_REPS)
    for name in ("timedirect", "lastblock", "original"):
        from aptest.calibration import critical_value

        cv1 = critical_value(dists[1.0][name], 0.05)
        tail10 = float((dists[10.0][name].samples > cv1.q_alpha).mean())
        checks.append(
            (
                f"exponential {name} invariance",
                abs(tail10 - cv1.achieved_alpha) < se3,
                f"tail at rate 10 of rate-1 threshold: {tail10:.4f} "
                f"vs achieved {cv1.achieved_alpha:.4f}",
            )
        )

    from aptest.calibration import critical_value, simulate_null_distribution

    bin_dists = {}
    for p in (0.5, 0.9):
        null = NullSpec(
            design, OutcomeModel(Bernoulli(p, p)), BETA_PRIOR,
            replicates=CALIB_REPS, seed=SEED,
        )
        bin_dists[p] = simulate_null_distribution(
            null, (lastblock_ap_test(),), stream=(int(10 * p),)
        )
    cv_half = critical_value(bin_dists[0.5]["lastblock"], 0.05)
    tail_09 = float((bin_dists[0.9]["lastblock"].samples > cv_half.q_alpha).mean())
    checks.append(
        (
            "binary lastblock sensitivity",
            abs(tail_09 - 0.05) > se3,
            f"tail at p=0.9 of p=0.5 threshold: {tail_09:.4f} (must leave 0.05 +/- {se3:.4f})",
        )
    )
    _report(8, "null-parameter sensitivity of calibrated thresholds", checks)


# ---------------------------------------------------------------------------
# Criterion 9: bytewise determinism of the batch front-end
# ---------------------------------------------------------------------------


ACCEPTANCE_CONFIG = """
scenarios:
  - name: determinism
    design: {kind: tuned, total_n: 40, burn_in: 10, block_size: 2}
    outcome: {family: exponential, control: 1.0, experimental: [1.6]}
    prior: {kind: gamma, shape: 1.0, rate: 0.001}
    alpha: 0.05
    seed: 123
    replicates: {calibration: 40000, evaluation: 5000}
    tests:
      - {ap: lastblock}
      - {ap: timedirect}
      - {comparator: lr, mode: nominal}
      - {comparator: lr, mode: nominal, on_er: true, name: lr-er}
  - name: determinism-binary
    design: {kind: standard, total_n: 30, burn_in: 6, block_size: 2}
    outcome: {family: bernoulli, control: 0.5, experimental: [0.75]}
    prior: {kind: beta, alpha: 1, beta: 1}
    alpha: 0.05
    seed: 321
    replicates: {calibration: 20000, evaluation: 3000}
    tests:
      - {ap: original}
      - {ap: timedirect}
      - {comparator: fisher, mode: nominal}
  - name: determinism-normal
    design: {kind: standard, total_n: 30, burn_in: 6, block_size: 1}
    outcome: {family: normal, control: 0.0, experimental: [0.6], sd_control: 1.0, sd_experimental: 2.0}
    prior: {kind: normal, mean: 0.0, variance: 100.0}
    alpha: 0.05
    seed: 213
    replicates: {calibration: 20000, evaluation: 3000}
    tests:
      - {ap: original}
      - {ap: lastblock}
      - {comparator: z, mode: nominal}
"""


def test_criterion_9_determinism(tmp_path):
    """Identical manifests give byte-identical outputs; worker-process count
    does not change a single byte.  The binary scenario's calibration spans
    two chunks, each with its own carried beta recurrence; the normal one
    spans two chunks of block size 1, one standard normal per subject."""
    config = tmp_path / "scenario.yaml"
    config.write_text(ACCEPTANCE_CONFIG)
    outs = {}
    for label, extra in (
        ("first", ["--threads", "1"]),
        ("second", ["--threads", "1"]),
        ("parallel", ["--threads", "3"]),
    ):
        out = tmp_path / label
        assert main(["--config", str(config), "--out", str(out), *extra]) == 0
        outs[label] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }
    checks = [
        (
            "rerun byte-identical",
            outs["first"] == outs["second"],
            f"{sorted(outs['first'])}",
        ),
        (
            "parallel equals serial",
            outs["first"] == outs["parallel"],
            "3-worker run identical to serial",
        ),
    ]
    _report(9, "bytewise reproducibility across reruns and worker counts", checks)
