"""observed-analysis: single trials analysed through aptest's library API.

Per family, ``TRIALS`` trials run through the scalar path
(``allocation.simulate_trial``) under integer priors, alternating standard
and tuned BRAR, and each is scored by the three AP statistics and the
family's trajectory comparator.  One short exponential and one short binary
trial run under Jeffreys-type priors, whose non-integer posterior
parameters send every superiority probability to the quadrature fallback;
they are few and short so that quadrature does not dominate the run.  The
first trial of each family is then treated as the observed dataset and
calibrated under its pooled estimate, at one chunk.

The plan is plain data so that the benchmark process can check results
without importing aptest.
"""

from __future__ import annotations

import numpy as np

ALPHA = 0.05
TRIALS = 150
POOLED_REPLICATES = 16384
N, BURN_IN = 121, 12
JEFFREYS_N, JEFFREYS_BURN_IN, JEFFREYS_BLOCK = 24, 4, 4

#: family -> (control, experimental, prior parameters, comparator)
FAMILIES = {
    "exponential": (1.0, 1.5, (1.0, 0.001), "lr"),
    "bernoulli": (0.7, 0.9, (1.0, 1.0), "fisher"),
    "normal": (0.0, 0.3, (0.0, 100.0), "z"),
}
NORMAL_SD = 1.0
JEFFREYS = {"exponential": (0.5, 0.001), "bernoulli": (0.5, 0.5)}
AP_TESTS = ("original", "timedirect", "lastblock")

TRIAL_COLUMNS = (
    "family", "trial", "prior", "design", "N", "n1", "s1", "n0", "s0",
    "final_prob", "min_prob", "max_prob", *AP_TESTS, "comparator",
)
POOLED_COLUMNS = ("family", "test", "q_alpha", "achieved_alpha", "degenerate_max", "pooled_param")


def trial_plan(trials: int = TRIALS) -> list[tuple[str, int, str]]:
    """(family, index, prior kind) for every single trial, in run order."""
    plan = [(fam, i, "integer") for fam in FAMILIES for i in range(trials)]
    plan += [(fam, 0, "jeffreys") for fam in JEFFREYS]
    return plan


def expected_counts(trials: int = TRIALS) -> dict:
    """Work counts of one iteration; pooled calibrations are one chunk each."""
    blocks = N - BURN_IN + 1
    pooled = len(FAMILIES)
    return {
        "engine.batches": pooled,
        "engine.chunks": pooled,
        "engine.kernel_calls": pooled * blocks,
        "engine.rep_blocks": pooled * POOLED_REPLICATES * blocks,
        "harness.cells": 0,
        "trials": len(trial_plan(trials)) + pooled * POOLED_REPLICATES,
        "ops": len(trial_plan(trials)) + pooled,
    }


def _rng(seed: int, family_index: int, trial: int, prior_kind: str) -> np.random.Generator:
    key = (seed, family_index, trial, 0 if prior_kind == "integer" else 1)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


class Analysis:
    """Built objects for one iteration; building them is part of set-up."""

    def __init__(self, seed: int, trials: int = TRIALS):
        from aptest import allocation, models, stats

        self.seed = seed
        self.trials = trials
        self.models, self.priors, self.comparators = {}, {}, {}
        for fam, (ctrl, exp, prior, comp) in FAMILIES.items():
            if fam == "exponential":
                family = models.Exponential(ctrl, exp)
                self.priors[(fam, "integer")] = models.GammaPrior(*prior)
                self.priors[(fam, "jeffreys")] = models.GammaPrior(*JEFFREYS[fam])
            elif fam == "bernoulli":
                family = models.Bernoulli(ctrl, exp)
                self.priors[(fam, "integer")] = models.BetaPrior(*prior)
                self.priors[(fam, "jeffreys")] = models.BetaPrior(*JEFFREYS[fam])
            else:
                family = models.NormalKnownVar(ctrl, exp, NORMAL_SD, NORMAL_SD)
                self.priors[(fam, "integer")] = models.NormalPrior(*prior)
            self.models[fam] = models.OutcomeModel(family)
            self.comparators[fam] = stats.ComparatorTest(comp, comp)
        self.designs = {
            kind: allocation.DesignConfig(
                total_n=N, burn_in=BURN_IN, block_size=1, num_blocks=N - BURN_IN, design=cls()
            )
            for kind, cls in (("standard", allocation.StandardBRAR), ("tuned", allocation.TunedBRAR))
        }
        self.jeffreys_design = allocation.DesignConfig(
            total_n=JEFFREYS_N,
            burn_in=JEFFREYS_BURN_IN,
            block_size=JEFFREYS_BLOCK,
            num_blocks=(JEFFREYS_N - JEFFREYS_BURN_IN) // JEFFREYS_BLOCK,
            design=allocation.StandardBRAR(),
        )
        self.ap_specs = (
            stats.original_ap_test(), stats.timedirect_ap_test(), stats.lastblock_ap_test()
        )

    def run(self, out_dir) -> None:
        """Analyse every planned trial, calibrate, and write two TSV files."""
        from aptest import allocation, calibration, stats

        observed = {}
        fam_index = {fam: i for i, fam in enumerate(FAMILIES)}
        with open(out_dir / "trials.tsv", "w", encoding="utf-8") as fh:
            fh.write("\t".join(TRIAL_COLUMNS) + "\n")
            for fam, i, prior_kind in trial_plan(self.trials):
                if prior_kind == "integer":
                    design_kind = "standard" if i % 2 == 0 else "tuned"
                    design = self.designs[design_kind]
                else:
                    design_kind, design = "jeffreys-standard", self.jeffreys_design
                try:
                    traj = allocation.simulate_trial(
                        design, self.models[fam], self.priors[(fam, prior_kind)],
                        _rng(self.seed, fam_index[fam], i, prior_kind),
                    )
                    aps = [stats.ap_statistic(traj, spec) for spec in self.ap_specs]
                    comp = self._comparator(fam, traj)
                except Exception as exc:  # one failed trial is one failed operation
                    fh.write(f"{fam}\t{i}\t{prior_kind}\terror\t{type(exc).__name__}\n")
                    continue
                if prior_kind == "integer" and i == 0:
                    observed[fam] = traj
                post = traj.final_posteriors
                probs = traj.alloc_probs
                values = (
                    fam, i, prior_kind, design_kind, design.total_n,
                    post.experimental.n, post.experimental.total,
                    post.control.n, post.control.total,
                    probs[-1], probs.min(), probs.max(), *aps, comp,
                )
                fh.write("\t".join(_fmt(v) for v in values) + "\n")

        with open(out_dir / "pooled.tsv", "w", encoding="utf-8") as fh:
            fh.write("\t".join(POOLED_COLUMNS) + "\n")
            for fam, traj in observed.items():
                model = self.models[fam]
                tests = (*self.ap_specs, self.comparators[fam])
                try:
                    pooled = calibration.pooled_null_model(traj, model).param_control
                    values = calibration.calibrate_under_pooled(
                        traj, self.designs["standard"], model, self.priors[(fam, "integer")],
                        tests, ALPHA, POOLED_REPLICATES, self.seed,
                    )
                except Exception as exc:
                    fh.write(f"{fam}\terror\t{type(exc).__name__}\n")
                    continue
                for name, cv in values.items():
                    fh.write(
                        f"{fam}\t{name}\t{_fmt(cv.q_alpha)}\t{_fmt(cv.achieved_alpha)}"
                        f"\t{int(cv.degenerate_max)}\t{_fmt(pooled)}\n"
                    )

    def _comparator(self, fam: str, traj) -> float:
        from aptest import stats

        post = traj.final_posteriors
        if fam == "exponential":
            return stats.lr_exponential(traj).statistic
        if fam == "bernoulli":
            return -stats.fisher_exact_one_sided(
                post.experimental.n, int(post.experimental.total),
                post.control.n, int(post.control.total),
            )
        return stats.z_test_normal(traj, NORMAL_SD, NORMAL_SD).statistic


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)
