"""Built-in study presets.

Six studies ship with the package: the phase-2 and phase-3 operating
characteristic grids, a type-I-error curve over sample size, a large-sample
power sweep, and two empirical-example scenarios (exponential and binary).
Every preset also has a ``-desk`` variant that trims the replication budget
to 1e5 calibration / 1e4 evaluation draws, enough for Monte Carlo standard
errors around half a percentage point on a laptop, and ends the sweeps at
N = 1000.  A preset is a flat list of fully built scenarios: a sweep lists
one scenario per sample size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allocation import StandardBRAR, TunedBRAR, sized_design
from .errors import ConfigError
from .harness import CALIBRATED, NOMINAL, ScenarioSpec, TestEntry, sweep_scenarios
from .models import (
    Bernoulli,
    BetaPrior,
    Exponential,
    GammaPrior,
    OutcomeModel,
    PriorSpec,
)
from .stats import ComparatorTest, lastblock_ap_test, original_ap_test, timedirect_ap_test


@dataclass(frozen=True)
class Budget:
    """Replicates per scenario and the sample sizes a sweep preset visits."""

    calib: int
    evaluation: int
    n_grid: tuple[int, ...]


FULL_BUDGET = Budget(10**6, 10**5, (100, 200, 500, 1000, 2000, 5000))
DESK_BUDGET = Budget(10**5, 10**4, (100, 200, 500, 1000))

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
    """One fully built scenario of a preset, and the figure its rows feed, if any."""

    scenario: ScenarioSpec
    figure: str = ""


def _scenario(seed: int, budget: Budget, **fields) -> ScenarioSpec:
    return ScenarioSpec(
        replicates_eval=budget.evaluation, replicates_calib=budget.calib, seed=seed, **fields
    )


def _sweep_jobs(templates, budget: Budget, figure: str) -> tuple[PresetJob, ...]:
    return tuple(
        PresetJob(spec, figure)
        for template in templates
        for spec in sweep_scenarios(template, budget.n_grid)
    )


def _exp_model(rate_control: float, rate_experimental: float) -> OutcomeModel:
    return OutcomeModel(Exponential(rate_control, rate_experimental))


def _battery(comparator: str, mode: str, two_sided: bool = False) -> tuple[TestEntry, ...]:
    """The AP trio, then ``comparator`` on the primary and the equal-randomization design.

    ``mode`` applies to the integer AP test and both comparators; the
    continuous AP tests have no nominal form and are always calibrated.
    """
    return (
        TestEntry(original_ap_test(), mode=mode),
        TestEntry(timedirect_ap_test(), mode=CALIBRATED),
        TestEntry(lastblock_ap_test(), mode=CALIBRATED),
        TestEntry(ComparatorTest(comparator, comparator, two_sided), mode=mode),
        TestEntry(ComparatorTest(comparator, f"{comparator}-er", two_sided), mode=mode, on_er=True),
    )


def _brar_designs(total_n: int, burn_in: int, block_size: int):
    return (
        ("standard", sized_design(total_n, burn_in, block_size, StandardBRAR())),
        ("tuned", sized_design(total_n, burn_in, block_size, TunedBRAR())),
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
    budget: Budget,
) -> tuple[PresetJob, ...]:
    designs = _brar_designs(total_n, burn_in, block_size)
    common = dict(prior=VAGUE_GAMMA_PRIOR, null_model=_exp_model(1.0, 1.0), alpha=alpha)
    grid = tuple(
        PresetJob(
            _scenario(
                seed,
                budget,
                name=f"{tag}-{label}",
                design=design,
                alternative_models=tuple(_exp_model(1.0, r) for r in RATE_GRID),
                tests=tests,
                **common,
            ),
            figure,
        )
        for label, design in designs
    )
    # Patient-benefit cells at the 50% treatment effect; evaluation only.
    benefit_tests = tuple(e for e in _battery("lr", NOMINAL) if isinstance(e.spec, ComparatorTest))
    benefit = tuple(
        PresetJob(
            _scenario(
                seed,
                budget,
                name=f"{tag}-benefit-{label}",
                design=design,
                alternative_models=(_exp_model(1.0, BENEFIT_RATE),),
                tests=benefit_tests,
                **common,
            )
        )
        for label, design in designs
    )
    return grid + benefit


def phase2(seed: int, budget: Budget) -> tuple[PresetJob, ...]:
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
        tests=_battery("lr", NOMINAL),
        figure="fig1",
        seed=seed,
        budget=budget,
    )


def phase3(seed: int, budget: Budget) -> tuple[PresetJob, ...]:
    """Phase-3 grid: N=500, burn-in 50, block size 10, strict 5% control."""
    return _phase_jobs(
        "phase3",
        total_n=500,
        burn_in=50,
        block_size=10,
        alpha=0.05,
        tests=_battery("lr", CALIBRATED),
        figure="fig2",
        seed=seed,
        budget=budget,
    )


def type1_curve_preset(seed: int, budget: Budget) -> tuple[PresetJob, ...]:
    """Null rejection rate versus sample size, fully sequential designs."""
    templates = (
        _scenario(
            seed,
            budget,
            name=f"type1-{label}",
            design=design,
            prior=VAGUE_GAMMA_PRIOR,
            null_model=_exp_model(1.0, 1.0),
            tests=_battery("lr", NOMINAL),
            alpha=0.05,
        )
        for label, design in _brar_designs(total_n=100, burn_in=10, block_size=1)
    )
    return _sweep_jobs(templates, budget, "fig3")


def large_sample(seed: int, budget: Budget) -> tuple[PresetJob, ...]:
    """Power convergence over sample size at moderate and large effects."""
    _, design = _brar_designs(total_n=100, burn_in=10, block_size=1)[0]
    templates = (
        _scenario(
            seed,
            budget,
            name=f"large-sample-rate{rate:g}",
            design=design,
            prior=VAGUE_GAMMA_PRIOR,
            null_model=_exp_model(1.0, 1.0),
            alternative_models=(_exp_model(1.0, rate),),
            tests=_battery("lr", NOMINAL),
            alpha=0.05,
        )
        for rate in (1.5, 2.0)
    )
    return _sweep_jobs(templates, budget, "fig4")


def _empirical_jobs(
    seed: int, budget: Budget, endpoint: str, family: type, control: float,
    experimental: float, prior: PriorSpec, tests: tuple[TestEntry, ...],
) -> tuple[PresetJob, ...]:
    """The empirical example's N=121, burn-in 12 designs under strict 5% control."""
    return tuple(
        PresetJob(
            _scenario(
                seed,
                budget,
                name=f"empirical-{endpoint}-{label}",
                design=design,
                prior=prior,
                null_model=OutcomeModel(family(control, control)),
                alternative_models=(OutcomeModel(family(control, experimental)),),
                tests=tests,
                alpha=0.05,
            )
        )
        for label, design in _brar_designs(total_n=121, burn_in=12, block_size=1)
    )


def empirical_exponential(seed: int, budget: Budget) -> tuple[PresetJob, ...]:
    """Time-to-hemostasis example: N=121, burn-in 12, strict 5% control.

    The likelihood-ratio comparators here are two-sided (deviance against a
    chi-square threshold), the convention of the study this scenario models;
    the AP tests are inherently one-sided.
    """
    return _empirical_jobs(
        seed, budget, "exponential", Exponential, EMPIRICAL_RATE_CONTROL,
        EMPIRICAL_RATE_EXPERIMENTAL, VAGUE_GAMMA_PRIOR, _battery("lr", CALIBRATED, two_sided=True),
    )


def empirical_binary(seed: int, budget: Budget) -> tuple[PresetJob, ...]:
    """Hemostasis-within-10-minutes example: binary endpoint, strict control."""
    return _empirical_jobs(
        seed, budget, "binary", Bernoulli, EMPIRICAL_P_CONTROL, EMPIRICAL_P_EXPERIMENTAL,
        FLAT_BETA_PRIOR, _battery("fisher", CALIBRATED),
    )


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
    """Every scenario of a preset, fully built; ``-desk`` selects the smaller budget."""
    desk = name.endswith("-desk")
    base = name[: -len("-desk")] if desk else name
    if base not in _BUILDERS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return _BUILDERS[base](seed, DESK_BUDGET if desk else FULL_BUDGET)
