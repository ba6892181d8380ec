"""Scenario evaluation, patient benefit, sweeps, and report export."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aptest import calibration, engine, harness
from aptest.allocation import MAX_TOTAL_N, DesignConfig
from aptest.calibration import NullSpec
from aptest.engine import CHUNK_SIZE, simulate_batch
from aptest.errors import ConfigError
from aptest.harness import (
    ScenarioSpec,
    TestEntry,
    equal_randomization_design,
    export_critical_values,
    export_report,
    model_label,
    patient_benefit,
    run_scenario,
    sample_size_sweep,
)
from aptest.models import Bernoulli, BetaPrior, Exponential, GammaPrior, OutcomeModel
from aptest.stats import (
    APTestSpec,
    ComparatorTest,
    CustomWeights,
    Identity,
    lastblock_ap_test,
    original_ap_test,
    timedirect_ap_test,
)

PRIOR = GammaPrior(1.0, 0.001)
NULL = OutcomeModel(Exponential(1.0, 1.0))


def tiny_scenario(**overrides):
    base = dict(
        name="tiny",
        design=DesignConfig(30, 6, 2, 12),
        prior=PRIOR,
        null_model=NULL,
        alternative_models=(OutcomeModel(Exponential(1.0, 1.8)),),
        tests=(
            TestEntry(lastblock_ap_test()),
            TestEntry(ComparatorTest("lr", "lr"), mode="nominal"),
            TestEntry(ComparatorTest("lr", "lr-er"), mode="nominal", on_er=True),
        ),
        alpha=0.05,
        replicates_eval=4000,
        replicates_calib=20000,
        seed=77,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestScenarioValidation:
    def test_alternatives_must_share_control_arm(self):
        with pytest.raises(ConfigError):
            tiny_scenario(alternative_models=(OutcomeModel(Exponential(1.1, 1.8)),))

    def test_alternatives_must_share_family(self):
        with pytest.raises(ConfigError):
            tiny_scenario(alternative_models=(OutcomeModel(Bernoulli(0.5, 0.7)),))

    def test_duplicate_test_names_rejected(self):
        with pytest.raises(ConfigError):
            tiny_scenario(
                tests=(TestEntry(lastblock_ap_test()), TestEntry(lastblock_ap_test()))
            )

    def test_er_design_derived_when_needed(self):
        spec = tiny_scenario()
        assert spec.er_design is not None
        assert spec.er_design.total_n == 30
        assert not spec.er_design.is_adaptive

    def test_colliding_model_labels_rejected(self):
        # both print as exponential(1,1.8) at 6 significant digits
        near = OutcomeModel(Exponential(1.0, 1.8000001))
        with pytest.raises(ConfigError, match="label"):
            tiny_scenario(alternative_models=(OutcomeModel(Exponential(1.0, 1.8)), near))
        with pytest.raises(ConfigError, match="label"):
            tiny_scenario(alternative_models=(OutcomeModel(Exponential(1.0, 1.0000001)),))

    def test_battery_checked_at_construction(self):
        with pytest.raises(ConfigError, match="does not match outcome family"):
            tiny_scenario(prior=BetaPrior(0.5, 0.5))
        with pytest.raises(ConfigError, match="does not apply"):
            tiny_scenario(tests=(TestEntry(ComparatorTest("z", "z-er"), on_er=True),))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(replicates_eval=0), "replicates_eval must be >= 1"),
            (dict(replicates_calib=0), "calibration replicates must be >= 1"),
            (dict(seed=-1), "seed must be >= 0"),
            (dict(null_model=OutcomeModel(Exponential(1.0, 1.2))),
             "null model must have equal arms"),
        ],
    )
    def test_budgets_seed_and_null_checked_at_construction(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            tiny_scenario(**overrides)

    def test_ap_test_on_er_rejected(self):
        with pytest.raises(ConfigError):
            TestEntry(lastblock_ap_test(), on_er=True)

    def test_continuous_ap_has_no_nominal_mode(self):
        with pytest.raises(ConfigError):
            TestEntry(timedirect_ap_test(), mode="nominal")


#: Above the 10^8 replicate ceiling of scenarios, nulls and batches.
TOO_MANY = 2 * 10**8


@pytest.mark.parametrize(
    "build",
    [
        *(
            pytest.param(lambda name=name: tiny_scenario(name=name), id=f"scenario-name-{tag}")
            for tag, name in [("empty", ""), ("tab", "a\tb"), ("cr", "a\rb"), ("lf", "a\nb"),
                              ("slash", "a/b"), ("nul", "a\0b")]
        ),
        *(
            pytest.param(build, id=f"{kind}-name-{tag}")
            for tag, name in [("tab", "a\tb"), ("cr", "a\rb"), ("lf", "a\nb")]
            for kind, build in [
                ("ap", lambda name=name: lastblock_ap_test(name=name)),
                ("comparator", lambda name=name: ComparatorTest("lr", name)),
            ]
        ),
        pytest.param(lambda: DesignConfig(MAX_TOTAL_N + 2, 10, 1, MAX_TOTAL_N - 8),
                     id="design-total-n"),
        pytest.param(lambda: DesignConfig(10**20, 10, 1, 10**20 - 10), id="design-total-n-1e20"),
        pytest.param(lambda: tiny_scenario(replicates_eval=0), id="scenario-eval-zero"),
        pytest.param(lambda: tiny_scenario(replicates_eval=TOO_MANY), id="scenario-eval-above"),
        pytest.param(lambda: tiny_scenario(replicates_calib=0), id="scenario-calib-zero"),
        pytest.param(lambda: tiny_scenario(replicates_calib=TOO_MANY), id="scenario-calib-above"),
        pytest.param(lambda: NullSpec(DesignConfig(30, 6, 2, 12), NULL, PRIOR, 0), id="null-zero"),
        pytest.param(lambda: NullSpec(DesignConfig(30, 6, 2, 12), NULL, PRIOR, TOO_MANY),
                     id="null-above"),
        pytest.param(lambda: tiny_scenario(alternative_models=(NULL,)),
                     id="alternative-equals-null"),
        pytest.param(lambda: CustomWeights((1e308,) * 5), id="weights-sum-overflows"),
    ],
)
def test_library_caller_gets_each_rule_from_its_owner(monkeypatch, build):
    # each rule is the constructor's own, so nothing reaches a simulation
    for module in (engine, harness, calibration):
        monkeypatch.setattr(module, "simulate_batch", lambda *a, **k: pytest.fail("simulated"))
    with pytest.raises(ConfigError):
        build()


class TestPatientBenefit:
    def test_er_design_sits_at_half(self):
        design = equal_randomization_design(100)
        model = OutcomeModel(Exponential(1.0, 1.5))
        batch = simulate_batch(design, model, PRIOR, (), 20000, seed=3)
        b = patient_benefit(batch, model, design)
        assert abs(b.pct_on_better_mean - 50.0) < 0.5

    def test_all_subjects_on_better_arm_boundary(self):
        design = equal_randomization_design(10)
        model = OutcomeModel(Exponential(1.0, 2.0))
        batch = simulate_batch(design, model, PRIOR, (), 100, seed=3)
        batch.n_experimental[:] = 10
        b = patient_benefit(batch, model, design)
        assert b.pct_on_better_mean == 100.0

    def test_smaller_is_better_counts_other_arm(self):
        design = equal_randomization_design(10)
        model = OutcomeModel(Exponential(1.0, 2.0), "smaller")
        batch = simulate_batch(design, model, PRIOR, (), 100, seed=3)
        batch.n_experimental[:] = 10
        b = patient_benefit(batch, model, design)
        assert b.pct_on_better_mean == 0.0

    def test_equal_arms_report_arm_one_share(self):
        # no arm is better, so the share is the experimental arm's
        design = equal_randomization_design(11)
        batch = simulate_batch(design, NULL, PRIOR, (), 100, seed=3)
        b = patient_benefit(batch, NULL, design)
        assert b.pct_on_better_mean == 100 * (batch.n_experimental / 11).mean()


class TestRunScenario:
    def test_report_shape_and_null_calibration(self):
        report = run_scenario(tiny_scenario())
        assert len(report.rows) == 6  # 2 models x 3 tests
        null_rate = report.rejection_rate("exponential(1,1)", "lastblock")
        se = np.sqrt(0.05 * 0.95 / 4000)
        assert abs(null_rate - 0.05) < 3.5 * se
        power = report.rejection_rate("exponential(1,1.8)", "lastblock")
        assert power > 0.3  # far above the 5% null level even at N=30

    def test_er_rows_carry_er_benefit(self):
        report = run_scenario(tiny_scenario())
        row = report.row("exponential(1,1.8)", "lr-er")
        assert abs(row.pct_better_mean - 50.0) < 2.0
        brar_row = report.row("exponential(1,1.8)", "lastblock")
        assert brar_row.pct_better_mean > 60.0

    def test_same_seed_reproduces_report(self):
        a = run_scenario(tiny_scenario())
        b = run_scenario(tiny_scenario())
        assert a.rows == b.rows
        assert a.critical_values == b.critical_values

    def test_worker_threads_reproduce_serial_report(self):
        spec = tiny_scenario(
            alternative_models=tuple(OutcomeModel(Exponential(1.0, r)) for r in (1.4, 1.8, 2.2)),
            tests=(
                TestEntry(lastblock_ap_test()),
                TestEntry(ComparatorTest("lr", "lr"), mode="nominal"),
                TestEntry(ComparatorTest("lr", "lr-er"), on_er=True),
            ),
            replicates_calib=CHUNK_SIZE + 1000,  # two chunks per calibration
            replicates_eval=2000,
        )
        serial = run_scenario(spec, threads=1)
        pooled = run_scenario(spec, threads=2)
        assert len(serial.rows) == 12  # 4 models x 3 tests
        assert pooled.rows == serial.rows
        assert list(pooled.critical_values.items()) == list(serial.critical_values.items())

    def test_mc_se_formula(self):
        report = run_scenario(tiny_scenario())
        for row in report.rows:
            expected = np.sqrt(row.rejection_rate * (1 - row.rejection_rate) / 4000)
            assert row.mc_se == pytest.approx(expected)

    def test_degenerate_calibration_reported_not_raised(self):
        spec = tiny_scenario(
            tests=(TestEntry(original_ap_test()),),
            design=DesignConfig(16, 6, 1, 10),
        )
        report = run_scenario(spec)
        assert report.critical_values["original"].degenerate_max
        assert report.rejection_rate("exponential(1,1)", "original") == 0.0


class TestSweeps:
    def test_type1_curve_resizes_designs(self):
        template = tiny_scenario(
            design=DesignConfig(20, 6, 1, 14),
            alternative_models=(),
            tests=(TestEntry(ComparatorTest("lr", "lr"), mode="nominal"),),
            replicates_eval=2000,
            replicates_calib=2000,
        )
        reports = sample_size_sweep(template, (20, 30), threads=1)
        assert [r.rows[0].total_n for r in reports] == [20, 30]
        for r in reports:
            assert all(row.param_control == row.param_experimental for row in r.rows)

    def test_power_sweep_keeps_alternatives(self):
        template = tiny_scenario(
            design=DesignConfig(20, 6, 1, 14),
            tests=(TestEntry(lastblock_ap_test()),),
            replicates_eval=2000,
            replicates_calib=5000,
        )
        reports = sample_size_sweep(template, (20, 40), threads=1)
        powers = [r.rejection_rate("exponential(1,1.8)", "lastblock") for r in reports]
        assert len(powers) == 2
        assert powers[1] > powers[0] - 3 * 0.011  # non-decreasing within MC noise

    def test_sweep_checks_every_size_before_simulating(self, monkeypatch):
        # 15 weights cover blocks 1..15 of the N=20 template only
        calls = []

        def recording_batch(*args, **kwargs):
            calls.append(args)
            return simulate_batch(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate_batch", recording_batch)
        monkeypatch.setattr(calibration, "simulate_batch", recording_batch)
        custom = APTestSpec("w15", Identity(), CustomWeights((1.0,) * 15))
        template = tiny_scenario(
            design=DesignConfig(20, 6, 1, 14),
            tests=(TestEntry(custom),),
            replicates_eval=500,
            replicates_calib=500,
        )
        with pytest.raises(ConfigError, match="custom weight vector"):
            sample_size_sweep(template, (20, 30))
        assert calls == []


class TestExport:
    def test_export_reproducible_and_headed(self, tmp_path):
        report = run_scenario(tiny_scenario(replicates_eval=1000, replicates_calib=2000))
        p1 = tmp_path / "a.tsv"
        p2 = tmp_path / "b.tsv"
        export_report(p1, report)
        export_report(p2, report)
        b1 = p1.read_bytes()
        assert b1 == p2.read_bytes()
        text = b1.decode()
        assert text.startswith("# aptest 0.1.0 seed=77")
        assert "replicates_eval=1000" in text.splitlines()[0]

    @settings(max_examples=40)
    @given(
        scenario=st.text(st.sampled_from("a /\t\n\r\0"), max_size=4),
        test=st.text(st.sampled_from("a /\t\n\r"), max_size=4),
    )
    def test_every_row_has_the_header_field_count(self, scenario, test):
        # any scenario that constructs exports well-formed tab-delimited files
        try:
            spec = tiny_scenario(
                name=scenario,
                design=DesignConfig(4, 2, 1, 2),
                tests=(TestEntry(lastblock_ap_test(name=test)),
                       TestEntry(ComparatorTest("lr", test + "lr"), mode="nominal")),
                replicates_eval=20,
                replicates_calib=20,
            )
        except ConfigError:
            return
        report = run_scenario(spec)
        with tempfile.TemporaryDirectory() as out:
            export_report(Path(out) / "r.tsv", report)
            export_critical_values(Path(out) / "cv.tsv", report.critical_values, 20, 0, "null")
            for name, comments in (("r.tsv", 1), ("cv.tsv", 0)):
                # read as text, so a carriage return ends a line too
                with open(Path(out) / name, encoding="utf-8") as fh:
                    header, *rows = fh.read().split("\n")[comments:-1]
                assert len(rows) == (len(report.rows) if name == "r.tsv" else 1)
                assert all(row.count("\t") == header.count("\t") for row in rows)

    def test_model_label_formatting(self):
        assert model_label("exponential", 1.0, 1.0) == "exponential(1,1)"
        assert model_label("bernoulli", 0.7, 0.9) == "bernoulli(0.7,0.9)"
