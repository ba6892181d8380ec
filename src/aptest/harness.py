"""Scenario evaluation: power, type I error, and patient-benefit aggregation.

A scenario couples one adaptive design with a null model, a grid of
alternatives, and a battery of tests.  Calibrated tests get their critical
values from a null Monte Carlo run; nominal tests use their asymptotic or
exact thresholds directly.  Every test for a given design is evaluated on
the same simulated trajectories, which shrinks the Monte Carlo variance of
power differences.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import __version__
from .allocation import DesignConfig, EqualRandomization, sized_design
from .calibration import (
    STREAM_EVALUATION,
    CriticalValue,
    NullSpec,
    calibrate,
)
from .engine import (
    MAX_REPLICATES,
    BatchResult,
    pool_workers,
    shared_pool,
    simulate_batch,
    validate_battery,
)
from .errors import ConfigError
from .models import OutcomeModel, PriorSpec
from .stats import APTestSpec, TestSpec, has_nominal_form, nominal_critical_value

log = logging.getLogger(__name__)

CALIBRATED = "calibrated"
NOMINAL = "nominal"

#: Longest file name, in bytes, that common file systems accept.
MAX_FILE_NAME_BYTES = 255

_PRIMARY_ROLE = 0
_ER_ROLE = 1


@dataclass(frozen=True)
class TestEntry:
    """One test in a scenario: the statistic, its mode, and which design it reads."""

    __test__ = False  # not a pytest class, despite the name

    spec: TestSpec
    mode: str = CALIBRATED
    on_er: bool = False

    def __post_init__(self) -> None:
        if self.mode not in (CALIBRATED, NOMINAL):
            raise ConfigError(f"test mode must be calibrated or nominal, got {self.mode!r}")
        if self.on_er and isinstance(self.spec, APTestSpec):
            raise ConfigError("AP tests do not apply to the equal-randomization design")
        if self.mode == NOMINAL and not has_nominal_form(self.spec):
            raise ConfigError(
                f"AP test {self.spec.name!r} is continuous and has no nominal form"
            )

    @property
    def name(self) -> str:
        return self.spec.name


def equal_randomization_design(total_n: int) -> DesignConfig:
    """Comparator design balancing all N subjects: N // 2 per arm, a coin for odd N."""
    if total_n < 2:
        raise ConfigError(f"equal randomization needs at least 2 subjects, got {total_n}")
    return sized_design(total_n, 2, 1, EqualRandomization())


@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluation cell grid: design, models, tests, and budgets."""

    name: str
    design: DesignConfig
    prior: PriorSpec
    null_model: OutcomeModel
    alternative_models: tuple[OutcomeModel, ...] = ()
    tests: tuple[TestEntry, ...] = ()
    alpha: float = 0.05
    replicates_eval: int = 10**5
    replicates_calib: int = 10**6
    seed: int = 0

    def __post_init__(self) -> None:
        # the name is the stem of the scenario's output files and a report field
        if not self.name or any(c in self.name for c in "\t\n\r/\0"):
            raise ConfigError(
                "scenario name must be non-empty and hold no tab, line break, '/' or NUL, "
                f"got {self.name!r}"
            )
        # the longest of those file names must be one a file system takes
        try:
            longest = len(f"{self.name}_critical_values.tsv".encode("utf-8"))
        except UnicodeEncodeError:
            raise ConfigError(f"scenario name must encode as UTF-8, got {self.name!r}") from None
        if longest > MAX_FILE_NAME_BYTES:
            raise ConfigError(
                f"scenario name is too long: '<name>_critical_values.tsv' takes {longest} "
                f"bytes, more than the {MAX_FILE_NAME_BYTES} of a file name"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.replicates_eval < 1:
            raise ConfigError(f"replicates_eval must be >= 1, got {self.replicates_eval}")
        if self.replicates_eval > MAX_REPLICATES:
            raise ConfigError(
                f"replicates_eval must be at most {MAX_REPLICATES}, got {self.replicates_eval}"
            )
        # the calibration budget, the seed and the null's equal arms, as calibration checks them
        NullSpec(self.design, self.null_model, self.prior, self.replicates_calib, self.seed)
        for m in self.alternative_models:
            if m.kind != self.null_model.kind:
                raise ConfigError("alternative models must share the null's family")
            if m.better_direction != self.null_model.better_direction:
                raise ConfigError("alternative models must share the null's direction")
            if m.param_control != self.null_model.param_control:
                raise ConfigError(
                    "alternative models must share the null's control arm parameter"
                )
        labels = [_label_of(m) for m in self.model_grid()]
        if len(set(labels)) != len(labels):
            raise ConfigError(
                "model labels must be unique (6 significant digits), and the null "
                f"is always evaluated, so no alternative may equal it: {labels}"
            )
        names = [e.name for e in self.tests]
        if len(set(names)) != len(names):
            raise ConfigError(f"test names must be unique within a scenario: {names}")
        # the engine's checks, run here so a config fails before any simulation
        for _, design, entries in self.roles():
            validate_battery(design, self.null_model, self.prior, tuple(e.spec for e in entries))

    @property
    def er_design(self) -> DesignConfig:
        """The equal-randomization comparator design, sized like the primary one."""
        return equal_randomization_design(self.design.total_n)

    def roles(self) -> tuple[tuple[int, DesignConfig, tuple[TestEntry, ...]], ...]:
        """(stream role, design, tests) for every design this scenario simulates.

        The primary design always runs, so patient benefit is always
        reported; the equal-randomization design runs only for its tests.
        """
        roles = [(_PRIMARY_ROLE, self.design, tuple(e for e in self.tests if not e.on_er))]
        er_entries = tuple(e for e in self.tests if e.on_er)
        if er_entries:
            roles.append((_ER_ROLE, self.er_design, er_entries))
        return tuple(roles)

    def model_grid(self) -> tuple[OutcomeModel, ...]:
        return (self.null_model, *self.alternative_models)


@dataclass(frozen=True)
class BenefitSummary:
    """Patient-level operating characteristics of one (model, design) cell."""

    pct_on_better_mean: float
    pct_on_better_sd: float
    mean_outcome: float          # average outcome per subject
    mean_total_outcome: float    # average summed outcome per trial


def patient_benefit(batch: BatchResult, model: OutcomeModel, design: DesignConfig) -> BenefitSummary:
    """Fraction of subjects on the truly better arm and the mean outcome.

    When the arms are exactly equal there is no better arm; the fraction is
    reported for arm 1.
    """
    if batch.replicates == 0:
        raise ConfigError("empty batch")
    n_better = batch.n_experimental
    if model.better_arm() == 0:
        n_better = design.total_n - batch.n_experimental
    frac = n_better / design.total_n
    return BenefitSummary(
        pct_on_better_mean=float(frac.mean() * 100.0),
        pct_on_better_sd=float(frac.std() * 100.0),
        mean_outcome=float(batch.outcome_total.mean() / design.total_n),
        mean_total_outcome=float(batch.outcome_total.mean()),
    )


@dataclass(frozen=True)
class ReportRow:
    """One (model, test) cell of a performance report."""

    scenario: str
    design_label: str
    total_n: int
    block_size: int
    burn_in: int
    family: str
    param_control: float
    param_experimental: float
    test: str
    mode: str
    alpha: float
    rejection_rate: float
    mc_se: float
    pct_better_mean: float
    pct_better_sd: float
    mean_outcome: float
    seed: int


@dataclass
class PerformanceReport:
    """Operating characteristics of one scenario."""

    scenario: str
    rows: list[ReportRow]
    critical_values: dict[str, CriticalValue]
    replicates_eval: int
    replicates_calib: int
    seed: int
    wall_time: float = 0.0
    version: str = __version__

    def row(self, label: str, test: str) -> ReportRow:
        for r in self.rows:
            row_label = model_label(r.family, r.param_control, r.param_experimental)
            if r.test == test and row_label == label:
                return r
        raise KeyError(f"no row for model {label!r}, test {test!r}")

    def rejection_rate(self, label: str, test: str) -> float:
        return self.row(label, test).rejection_rate


def model_label(family: str, param_control: float, param_experimental: float) -> str:
    """Short model name, e.g. ``exponential(1,1.8)``; unique within a scenario."""
    return f"{family}({param_control:g},{param_experimental:g})"


def _label_of(model: OutcomeModel) -> str:
    return model_label(model.kind, model.param_control, model.param_experimental)


def _mc_se(rate: float, replicates: int) -> float:
    return float(np.sqrt(rate * (1.0 - rate) / replicates))


def run_scenario(spec: ScenarioSpec, threads: int = 1) -> PerformanceReport:
    """Calibrate, evaluate every model cell, and aggregate the report.

    At ``threads > 1`` the calibrations and evaluation cells run concurrently
    on the engine's shared pool; results are read in the serial order, so
    the report is identical for any ``threads``.
    """
    start = time.perf_counter()
    if spec.replicates_eval < 10**4:
        log.warning(
            "scenario %s: replicates_eval=%d gives binomial SE > 0.005 at p=0.5",
            spec.name,
            spec.replicates_eval,
        )
    roles = spec.roles()
    critical_values: dict[str, CriticalValue] = {}
    rows: list[ReportRow] = []
    with _batch_calls(threads) as submit:
        calibrations = []
        for role, design, entries in roles:
            to_calibrate = tuple(e.spec for e in entries if e.mode == CALIBRATED)
            if not to_calibrate:
                continue
            null = NullSpec(
                design=design,
                model=spec.null_model,
                prior=spec.prior,
                replicates=spec.replicates_calib,
                seed=spec.seed,
            )
            calibrations.append(
                submit(calibrate, null, to_calibrate, spec.alpha, threads=threads, stream=(role,))
            )
        cells = deque()
        for mi, model in enumerate(spec.model_grid()):
            for role, design, entries in roles:
                pending = submit(
                    simulate_batch,
                    design,
                    model,
                    spec.prior,
                    tuple(e.spec for e in entries),
                    spec.replicates_eval,
                    spec.seed,
                    stream=(STREAM_EVALUATION, role, mi),
                    threads=threads,
                )
                cells.append((model, design, entries, pending))
        for calibration in calibrations:
            critical_values.update(calibration.result())
        while cells:
            # popped, so each batch is freed once its rows are made
            model, design, entries, pending = cells.popleft()
            batch = pending.result()
            cell_benefit = patient_benefit(batch, model, design)
            for e in entries:
                if e.mode == CALIBRATED:
                    threshold = critical_values[e.name].q_alpha
                else:
                    threshold = nominal_critical_value(e.spec, design.num_blocks, spec.alpha)
                rate = float((batch.statistics[e.name] > threshold).mean())
                se = _mc_se(rate, spec.replicates_eval)
                if spec.replicates_eval >= 10**4 and 0.05 <= rate <= 0.95 and se > 0.005:
                    log.warning(
                        "scenario %s: mc_se=%.4f exceeds 0.005 for test %s",
                        spec.name, se, e.name,
                    )
                rows.append(
                    ReportRow(
                        scenario=spec.name,
                        design_label=design.label(),
                        total_n=design.total_n,
                        block_size=design.block_size,
                        burn_in=design.burn_in,
                        family=model.kind,
                        param_control=model.param_control,
                        param_experimental=model.param_experimental,
                        test=e.name,
                        mode=e.mode,
                        alpha=spec.alpha,
                        rejection_rate=rate,
                        mc_se=se,
                        pct_better_mean=cell_benefit.pct_on_better_mean,
                        pct_better_sd=cell_benefit.pct_on_better_sd,
                        mean_outcome=_reported_outcome(cell_benefit, model),
                        seed=spec.seed,
                    )
                )

    return PerformanceReport(
        scenario=spec.name,
        rows=rows,
        critical_values=critical_values,
        replicates_eval=spec.replicates_eval,
        replicates_calib=spec.replicates_calib,
        seed=spec.seed,
        wall_time=time.perf_counter() - start,
    )


class _Deferred:
    """A call made when its result is read: the one-thread stand-in for a future."""

    def __init__(self, fn, *args, **kwargs):
        self._call = functools.partial(fn, *args, **kwargs)

    def result(self):
        return self._call()


@contextmanager
def _batch_calls(threads: int):
    """Yield ``submit(fn, *args, **kwargs)`` for a scenario's batch calls.

    At one thread a call runs when its result is read, so calls run in the
    order results are read.  At more, calls run at once on threads that only
    wait for the engine's shared pool: no more threads than the pool has
    workers, started after the pool so that no worker is forked from a
    multi-threaded process.  On an error, calls not yet started are dropped.
    """
    if threads == 1:
        yield _Deferred
        return
    shared_pool(threads)
    calls = ThreadPoolExecutor(max_workers=pool_workers(threads))
    try:
        yield calls.submit
    except BaseException:
        calls.shutdown(cancel_futures=True)
        raise
    calls.shutdown()


def _reported_outcome(b: BenefitSummary, model: OutcomeModel) -> float:
    # Binary scenarios report expected total successes per trial; the other
    # families report the per-subject mean outcome.
    return b.mean_total_outcome if model.kind == "bernoulli" else b.mean_outcome


def sweep_scenarios(template: ScenarioSpec, n_grid: tuple[int, ...]) -> tuple[ScenarioSpec, ...]:
    """The template resized to every N of a sample-size grid, all checked up front.

    Each N gets its own fully sequential design (block size 1, the
    template's burn-in) and its own calibration; the template's null and
    alternatives are kept.
    """
    design = template.design
    return tuple(
        dataclasses.replace(
            template,
            name=f"{template.name}-n{n}",
            design=sized_design(n, design.burn_in, 1, design.design),
        )
        for n in n_grid
    )


def sample_size_sweep(
    template: ScenarioSpec, n_grid: tuple[int, ...], threads: int = 1
) -> list[PerformanceReport]:
    """Run the template over a sample-size grid (see ``sweep_scenarios``)."""
    return [run_scenario(spec, threads=threads) for spec in sweep_scenarios(template, n_grid)]


# ---------------------------------------------------------------------------
# Delimited export
# ---------------------------------------------------------------------------

#: Report headers that differ from their ReportRow attribute names.
_RENAMED_HEADERS = {
    "design_label": "design",
    "total_n": "N",
    "block_size": "B",
    "burn_in": "Bprime",
    "param_control": "param_ctrl",
    "param_experimental": "param_exp",
}

#: (header, ReportRow attribute) for every report column, in file order.
REPORT_COLUMNS = tuple(
    (_RENAMED_HEADERS.get(f.name, f.name), f.name) for f in dataclasses.fields(ReportRow)
)

#: Critical-value table columns; the header is the row attribute.
_CRITICAL_VALUE_COLUMNS = tuple(
    (name, name)
    for name in ("test", "alpha", "q_alpha", "achieved_alpha", "degenerate_max", "replicates",
                 "seed", "null_model")
)


def _cell(value) -> str:
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def write_rows(path, rows, columns=REPORT_COLUMNS, comment: str = "") -> None:
    """Write report rows as tab-delimited text, one line per row.

    ``columns`` lists (header, attribute) pairs; floats are written with 10
    significant digits, everything else as ``str``.  ``comment`` goes
    before the header line.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(comment)
        fh.write("\t".join(header for header, _ in columns) + "\n")
        for r in rows:
            fh.write("\t".join(_cell(getattr(r, attr)) for _, attr in columns) + "\n")


def export_report(path, report: PerformanceReport) -> None:
    """Write one report as tab-delimited text, reconstructible from its header."""
    write_rows(
        path,
        report.rows,
        comment=(
            f"# aptest {report.version} seed={report.seed} "
            f"replicates_eval={report.replicates_eval} "
            f"replicates_calib={report.replicates_calib}\n"
        ),
    )


def export_critical_values(
    path,
    values: dict[str, CriticalValue],
    replicates: int,
    seed: int,
    null_description: str,
) -> None:
    """Write a delimited critical-value table; ``degenerate_max`` is written 0 or 1."""
    rows = [
        SimpleNamespace(
            test=name,
            alpha=cv.alpha_nominal,
            q_alpha=cv.q_alpha,
            achieved_alpha=cv.achieved_alpha,
            degenerate_max=int(cv.degenerate_max),
            replicates=replicates,
            seed=seed,
            null_model=null_description,
        )
        for name, cv in values.items()
    ]
    write_rows(path, rows, _CRITICAL_VALUE_COLUMNS)
