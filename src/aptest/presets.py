"""Built-in study presets.

Six studies ship with the package: the phase-2 and phase-3 operating
characteristic grids, a type-I-error curve over sample size, a large-sample
power sweep, and two empirical-example scenarios (exponential and binary).
Every preset also has a ``-desk`` variant that trims the replication budget
to 1e5 calibration / 1e4 evaluation draws, enough for Monte Carlo standard
errors around half a percentage point on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allocation import DesignConfig, StandardBRAR, TunedBRAR
from .errors import ConfigError
from .harness import CALIBRATED, NOMINAL, ScenarioSpec, TestEntry
from .models import (
    Bernoulli,
    BetaPrior,
    Exponential,
    GammaPrior,
    OutcomeModel,
)
from .stats import ComparatorTest, lastblock_ap_test, original_ap_test, timedirect_ap_test

FULL_REPLICATES = (10**6, 10**5)  # (calibration, evaluation)
DESK_REPLICATES = (10**5, 10**4)

VAGUE_GAMMA_PRIOR = GammaPrior(shape=1.0, rate=0.001)
FLAT_BETA_PRIOR = BetaPrior(alpha=1.0, beta=1.0)

#: Rate grid for the phase-2/phase-3 power curves.
RATE_GRID = (1.2, 1.4, 1.6, 1.8, 2.0)

#: The patient-benefit tables use a 50% treatment effect (rate ratio 1.5).
BENEFIT_RATE = 1.5

#: Empirical example, time-to-hemostasis endpoint (rates per second).
EMPIRICAL_RATE_CONTROL = 0.002
EMPIRICAL_RATE_EXPERIMENTAL = 0.0035

#: Empirical example, hemostasis-within-10-minutes endpoint.
EMPIRICAL_P_CONTROL = 0.7
EMPIRICAL_P_EXPERIMENTAL = 0.9


@dataclass(frozen=True)
class PresetJob:
    """One unit of work inside a preset: a scenario or a sample-size sweep."""

    kind: str  # "scenario" | "sweep"
    scenario: ScenarioSpec
    n_grid: tuple[int, ...] = ()
    figure: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("scenario", "sweep"):
            raise ConfigError(f"unknown preset job kind {self.kind!r}")
        if self.kind != "scenario" and not self.n_grid:
            raise ConfigError("sweep jobs need a sample-size grid")


def _exp_model(rate_control: float, rate_experimental: float) -> OutcomeModel:
    return OutcomeModel(Exponential(rate_control, rate_experimental))


def _exponential_tests(mode_ap_original: str, mode_lr: str, mode_er: str) -> tuple[TestEntry, ...]:
    return (
        TestEntry(original_ap_test(), mode=mode_ap_original),
        TestEntry(timedirect_ap_test(), mode=CALIBRATED),
        TestEntry(lastblock_ap_test(), mode=CALIBRATED),
        TestEntry(ComparatorTest("lr", "lr"), mode=mode_lr),
        TestEntry(ComparatorTest("lr", "lr-er"), mode=mode_er, on_er=True),
    )


def _binary_tests(mode_ap_original: str, mode_fisher: str, mode_er: str) -> tuple[TestEntry, ...]:
    return (
        TestEntry(original_ap_test(), mode=mode_ap_original),
        TestEntry(timedirect_ap_test(), mode=CALIBRATED),
        TestEntry(lastblock_ap_test(), mode=CALIBRATED),
        TestEntry(ComparatorTest("fisher", "fisher"), mode=mode_fisher),
        TestEntry(ComparatorTest("fisher", "fisher-er"), mode=mode_er, on_er=True),
    )


def _brar_designs(total_n: int, burn_in: int, block_size: int):
    num_blocks = (total_n - burn_in) // block_size
    base = dict(
        total_n=total_n, burn_in=burn_in, block_size=block_size, num_blocks=num_blocks
    )
    return (
        ("standard", DesignConfig(**base, design=StandardBRAR())),
        ("tuned", DesignConfig(**base, design=TunedBRAR())),
    )


def _phase_jobs(
    tag: str,
    total_n: int,
    burn_in: int,
    block_size: int,
    alpha: float,
    tests: tuple[TestEntry, ...],
    figure: str,
    seed: int,
    replicates: tuple[int, int],
) -> tuple[PresetJob, ...]:
    calib, evaluation = replicates
    jobs = []
    for label, design in _brar_designs(total_n, burn_in, block_size):
        jobs.append(
            PresetJob(
                "scenario",
                ScenarioSpec(
                    name=f"{tag}-{label}",
                    design=design,
                    prior=VAGUE_GAMMA_PRIOR,
                    null_model=_exp_model(1.0, 1.0),
                    alternative_models=tuple(_exp_model(1.0, r) for r in RATE_GRID),
                    tests=tests,
                    alpha=alpha,
                    replicates_eval=evaluation,
                    replicates_calib=calib,
                    seed=seed,
                ),
                figure=figure,
            )
        )
    # Patient-benefit cells at the 50% treatment effect; evaluation only.
    benefit_tests = (
        TestEntry(ComparatorTest("lr", "lr"), mode=NOMINAL),
        TestEntry(ComparatorTest("lr", "lr-er"), mode=NOMINAL, on_er=True),
    )
    for label, design in _brar_designs(total_n, burn_in, block_size):
        jobs.append(
            PresetJob(
                "scenario",
                ScenarioSpec(
                    name=f"{tag}-benefit-{label}",
                    design=design,
                    prior=VAGUE_GAMMA_PRIOR,
                    null_model=_exp_model(1.0, 1.0),
                    alternative_models=(_exp_model(1.0, BENEFIT_RATE),),
                    tests=benefit_tests,
                    alpha=alpha,
                    replicates_eval=evaluation,
                    replicates_calib=calib,
                    seed=seed,
                ),
            )
        )
    return tuple(jobs)


def phase2(seed: int = 0, desk: bool = False) -> tuple[PresetJob, ...]:
    """Phase-2 grid: N=100, burn-in 10, fully sequential, 10% level.

    Tests are reported at their working levels: the integer AP test and the
    likelihood-ratio tests are uncalibrated, the continuous AP tests are
    calibrated to the target level.
    """
    return _phase_jobs(
        "phase2",
        total_n=100,
        burn_in=10,
        block_size=1,
        alpha=0.10,
        tests=_exponential_tests(NOMINAL, NOMINAL, NOMINAL),
        figure="fig1",
        seed=seed,
        replicates=DESK_REPLICATES if desk else FULL_REPLICATES,
    )


def phase3(seed: int = 0, desk: bool = False) -> tuple[PresetJob, ...]:
    """Phase-3 grid: N=500, burn-in 50, block size 10, strict 5% control."""
    return _phase_jobs(
        "phase3",
        total_n=500,
        burn_in=50,
        block_size=10,
        alpha=0.05,
        tests=_exponential_tests(CALIBRATED, CALIBRATED, CALIBRATED),
        figure="fig2",
        seed=seed,
        replicates=DESK_REPLICATES if desk else FULL_REPLICATES,
    )


def type1_curve_preset(seed: int = 0, desk: bool = False) -> tuple[PresetJob, ...]:
    """Null rejection rate versus sample size, fully sequential designs."""
    calib, evaluation = DESK_REPLICATES if desk else FULL_REPLICATES
    grid = (100, 200, 500, 1000) if desk else (100, 200, 500, 1000, 2000, 5000)
    jobs = []
    for label, design in _brar_designs(total_n=100, burn_in=10, block_size=1):
        jobs.append(
            PresetJob(
                "sweep",
                ScenarioSpec(
                    name=f"type1-{label}",
                    design=design,
                    prior=VAGUE_GAMMA_PRIOR,
                    null_model=_exp_model(1.0, 1.0),
                    tests=_exponential_tests(NOMINAL, NOMINAL, NOMINAL),
                    alpha=0.05,
                    replicates_eval=evaluation,
                    replicates_calib=calib,
                    seed=seed,
                ),
                n_grid=grid,
                figure="fig3",
            )
        )
    return tuple(jobs)


def large_sample(seed: int = 0, desk: bool = False) -> tuple[PresetJob, ...]:
    """Power convergence over sample size at moderate and large effects."""
    calib, evaluation = DESK_REPLICATES if desk else FULL_REPLICATES
    grid = (100, 200, 500, 1000) if desk else (100, 200, 500, 1000, 2000, 5000)
    jobs = []
    for rate in (1.5, 2.0):
        _, design = _brar_designs(total_n=100, burn_in=10, block_size=1)[0]
        jobs.append(
            PresetJob(
                "sweep",
                ScenarioSpec(
                    name=f"large-sample-rate{rate:g}",
                    design=design,
                    prior=VAGUE_GAMMA_PRIOR,
                    null_model=_exp_model(1.0, 1.0),
                    alternative_models=(_exp_model(1.0, rate),),
                    tests=_exponential_tests(NOMINAL, NOMINAL, NOMINAL),
                    alpha=0.05,
                    replicates_eval=evaluation,
                    replicates_calib=calib,
                    seed=seed,
                ),
                n_grid=grid,
                figure="fig4",
            )
        )
    return tuple(jobs)


def empirical_exponential(seed: int = 0, desk: bool = False) -> tuple[PresetJob, ...]:
    """Time-to-hemostasis example: N=121, burn-in 12, strict 5% control.

    The likelihood-ratio comparators here are two-sided (deviance against a
    chi-square threshold), the convention of the study this scenario models;
    the AP tests are inherently one-sided.
    """
    calib, evaluation = DESK_REPLICATES if desk else FULL_REPLICATES
    tests = (
        TestEntry(original_ap_test(), mode=CALIBRATED),
        TestEntry(timedirect_ap_test(), mode=CALIBRATED),
        TestEntry(lastblock_ap_test(), mode=CALIBRATED),
        TestEntry(ComparatorTest("lr", "lr", two_sided=True), mode=CALIBRATED),
        TestEntry(ComparatorTest("lr", "lr-er", two_sided=True), mode=CALIBRATED, on_er=True),
    )
    jobs = []
    for label, design in _brar_designs(total_n=121, burn_in=12, block_size=1):
        jobs.append(
            PresetJob(
                "scenario",
                ScenarioSpec(
                    name=f"empirical-exponential-{label}",
                    design=design,
                    prior=VAGUE_GAMMA_PRIOR,
                    null_model=_exp_model(EMPIRICAL_RATE_CONTROL, EMPIRICAL_RATE_CONTROL),
                    alternative_models=(
                        _exp_model(EMPIRICAL_RATE_CONTROL, EMPIRICAL_RATE_EXPERIMENTAL),
                    ),
                    tests=tests,
                    alpha=0.05,
                    replicates_eval=evaluation,
                    replicates_calib=calib,
                    seed=seed,
                ),
            )
        )
    return tuple(jobs)


def empirical_binary(seed: int = 0, desk: bool = False) -> tuple[PresetJob, ...]:
    """Hemostasis-within-10-minutes example: binary endpoint, strict control."""
    calib, evaluation = DESK_REPLICATES if desk else FULL_REPLICATES
    jobs = []
    for label, design in _brar_designs(total_n=121, burn_in=12, block_size=1):
        jobs.append(
            PresetJob(
                "scenario",
                ScenarioSpec(
                    name=f"empirical-binary-{label}",
                    design=design,
                    prior=FLAT_BETA_PRIOR,
                    null_model=OutcomeModel(
                        Bernoulli(EMPIRICAL_P_CONTROL, EMPIRICAL_P_CONTROL)
                    ),
                    alternative_models=(
                        OutcomeModel(
                            Bernoulli(EMPIRICAL_P_CONTROL, EMPIRICAL_P_EXPERIMENTAL)
                        ),
                    ),
                    tests=_binary_tests(CALIBRATED, CALIBRATED, CALIBRATED),
                    alpha=0.05,
                    replicates_eval=evaluation,
                    replicates_calib=calib,
                    seed=seed,
                ),
            )
        )
    return tuple(jobs)


_BUILDERS = {
    "phase2": phase2,
    "phase3": phase3,
    "type1-curve": type1_curve_preset,
    "large-sample": large_sample,
    "empirical-exponential": empirical_exponential,
    "empirical-binary": empirical_binary,
}


def preset_names() -> tuple[str, ...]:
    names = []
    for base in _BUILDERS:
        names.extend((base, base + "-desk"))
    return tuple(names)


def build_preset(name: str, seed: int = 0) -> tuple[PresetJob, ...]:
    """Instantiate a preset by name; ``-desk`` suffixes shrink the budgets."""
    desk = name.endswith("-desk")
    base = name[: -len("-desk")] if desk else name
    if base not in _BUILDERS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return _BUILDERS[base](seed=seed, desk=desk)
