"""Config parsing, presets, and end-to-end CLI runs."""

import dataclasses
import logging
import subprocess
import sys

import pytest

from aptest import cli
from aptest.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    build_manifest,
    build_parser,
    load_config,
    main,
)
from aptest.errors import ConfigError
from aptest.presets import PresetJob, build_preset, preset_names

GOOD_CONFIG = """
scenarios:
  - name: demo
    design: {kind: standard, total_n: 30, burn_in: 6, block_size: 2}
    outcome: {family: exponential, control: 1.0, experimental: [1.8]}
    prior: {kind: gamma, shape: 1.0, rate: 0.001}
    alpha: 0.05
    seed: 5
    replicates: {calibration: 3000, evaluation: 1000}
    tests:
      - {ap: lastblock}
      - {comparator: lr, mode: nominal}
      - {comparator: lr, mode: nominal, on_er: true, name: lr-er}
"""
DESIGN = "kind: standard, total_n: 30, burn_in: 6, block_size: 2}"
UNSAFE_NAME = "scenario name must be non-empty and hold no tab, line break, '/' or NUL"


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(GOOD_CONFIG)
        specs = load_config(path)
        assert len(specs) == 1
        spec = specs[0]
        assert spec.design.num_blocks == 12  # (30 - 6) / 2
        assert spec.replicates_calib == 3000
        assert {e.name for e in spec.tests} == {"lastblock", "lr", "lr-er"}

    def test_block_count_resolution(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            GOOD_CONFIG.replace("total_n: 30, burn_in: 6, block_size: 2",
                                "total_n: 100, burn_in: 10, block_size: 1")
        )
        assert load_config(path)[0].design.num_blocks == 90

    def test_non_integer_block_count_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            GOOD_CONFIG.replace("total_n: 30, burn_in: 6, block_size: 2",
                                "total_n: 101, burn_in: 10, block_size: 10")
        )
        with pytest.raises(ConfigError, match=r"scenarios\[0\].design"):
            load_config(path)

    def test_unknown_key_reports_path(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(GOOD_CONFIG.replace("alpha: 0.05", "alfa: 0.05"))
        with pytest.raises(ConfigError, match=r"scenarios\[0\].alfa"):
            load_config(path)

    def test_design_t_min_is_unknown(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(GOOD_CONFIG.replace("block_size: 2}", "block_size: 2, t_min: 5}"))
        with pytest.raises(ConfigError, match=r"scenarios\[0\].design.t_min: unknown key"):
            load_config(path)

    @pytest.mark.parametrize(
        "old, new, key_path",
        [
            ("- {ap: lastblock}", "- {ap: original, f: identity}", "tests[0].f"),
            ("- {ap: lastblock}", "- {ap: original, weights: [1, 2]}", "tests[0].weights"),
            ("- {ap: lastblock}", "- {ap: original, threshold: 0.9}", "tests[0].threshold"),
            ("- {ap: lastblock}", "- {ap: original, strict: false}", "tests[0].strict"),
            ("- {ap: lastblock}",
             "- {ap: custom, name: c, threshold: 0.9, weights: [0,0,0,0,0,0,0,0,0,0,0,0,1]}",
             "tests[0].threshold"),
            ("- {comparator: lr, mode: nominal}", "- {comparator: lr, mode: nominal, t_min: 7}",
             "tests[1].t_min"),
            (DESIGN, "kind: er, total_n: 30, burn_in: 6}", "design.burn_in"),
            (DESIGN, "kind: er, total_n: 30, block_size: 2}", "design.block_size"),
            ("experimental: [1.8]}", "experimental: [1.8], sd_control: 1.0}",
             "outcome.sd_control"),
            ("experimental: [1.8]}", "experimental: [1.8], sd_experimental: 1.0}",
             "outcome.sd_experimental"),
        ],
    )
    def test_key_ignored_by_chosen_kind_rejected(self, tmp_path, capsys, old, new, key_path):
        assert old in GOOD_CONFIG
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG.replace(old, new))
        assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"scenarios[0].{key_path}: applies only to" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key_path, expected",
        [
            ("total_n: 30,", "total_n: 30.9,", "design.total_n", "an integer"),
            ("burn_in: 6,", "burn_in: true,", "design.burn_in", "an integer"),
            ("block_size: 2}", "block_size: '2'}", "design.block_size", "an integer"),
            ("calibration: 3000,", "calibration: 3000.5,", "replicates.calibration",
             "an integer"),
            ("evaluation: 1000}", "evaluation: 1.0e3}", "replicates.evaluation",
             "an integer"),
            ("seed: 5", "seed: 5.5", "seed", "an integer"),
            ("total_n: 30,", "total_n: " + "9" * 400 + ",", "design.total_n",
             "an integer within floating-point range"),
            ("- {ap: lastblock}", "- {ap: lastblock, t_min: 2.5}", "tests[0].t_min",
             "an integer"),
            ("on_er: true, name: lr-er}", "on_er: 'no', name: lr-er}", "tests[2].on_er",
             "true or false"),
            ("- {ap: lastblock}",
             "- {ap: custom, name: c, f: indicator, strict: 'false', "
             "weights: [0,0,0,0,0,0,0,0,0,0,0,0,1]}",
             "tests[0].strict", "true or false"),
            ("- {ap: lastblock}",
             "- {ap: custom, name: c, f: indicator, strict: 0, "
             "weights: [0,0,0,0,0,0,0,0,0,0,0,0,1]}",
             "tests[0].strict", "true or false"),
            ("control: 1.0,", "control: abc,", "outcome.control", "a number"),
            ("experimental: [1.8]}", "experimental: [.inf]}", "outcome.experimental",
             "a finite number"),
            ("shape: 1.0,", "shape: [1],", "prior.shape", "a number"),
            ("shape: 1.0,", "shape: true,", "prior.shape", "a number"),
            ("rate: 0.001}", "rate: 1.0e3}", "prior.rate", "a number"),
            ("alpha: 0.05", "alpha: high", "alpha", "a number"),
            ("- {ap: lastblock}", "- {ap: custom, name: c, weights: 3}", "tests[0].weights",
             "a list of numbers"),
            ("- {ap: lastblock}",
             "- {ap: custom, name: c, weights: [0,0,0,0,0,0,0,0,0,0,0,0,.nan]}",
             "tests[0].weights[12]", "a finite number"),
            ("- {ap: lastblock}",
             "- {ap: custom, name: c, f: indicator, threshold: '0.6', "
             "weights: [0,0,0,0,0,0,0,0,0,0,0,0,1]}",
             "tests[0].threshold", "a number"),
            ("- {ap: lastblock}", "- {ap: lastblock, name: [1]}", "tests[0].name", "a string"),
            ("- {ap: lastblock}", "- {ap: lastblock, name: 7}", "tests[0].name", "a string"),
        ],
    )
    def test_mistyped_value_rejected(self, tmp_path, capsys, old, new, key_path, expected):
        # YAML reads 1.0e3 as the string "1.0e3", so it is not a number either
        assert old in GOOD_CONFIG
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG.replace(old, new))
        assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"scenarios[0].{key_path}: expected {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("experimental: [1.8]}", "experimental: [1.8], direction: up}",
             "scenarios[0].outcome: better_direction must be"),
            ("control: 1.0,", "control: -1.0,",
             "scenarios[0].outcome: exponential rates must be strictly positive"),
            ("shape: 1.0,", "shape: -1.0,",
             "scenarios[0].prior: gamma prior shape must be strictly positive"),
            (DESIGN, "kind: er, total_n: 1}",
             "scenarios[0].design: equal randomization needs at least 2 subjects, got 1"),
            (DESIGN, "kind: er, total_n: 0}",
             "scenarios[0].design: equal randomization needs at least 2 subjects, got 0"),
            ("{comparator: lr, mode: nominal}", "{comparator: ttest, mode: nominal}",
             "scenarios[0].tests[1]: unknown comparator kind 'ttest'"),
            ("- {ap: lastblock}",
             "- {ap: custom, name: c, f: indicator, threshold: 1.5, "
             "weights: [0,0,0,0,0,0,0,0,0,0,0,0,1]}",
             "scenarios[0].tests[0]: indicator threshold must lie in (0, 1)"),
            ("evaluation: 1000}", "evaluation: 0}",
             "scenarios[0]: replicates_eval must be >= 1, got 0"),
            ("evaluation: 1000}", "evaluation: -5}",
             "scenarios[0]: replicates_eval must be >= 1, got -5"),
            ("calibration: 3000,", "calibration: 0,",
             "scenarios[0]: calibration replicates must be >= 1, got 0"),
            ("seed: 5", "seed: -1", "scenarios[0]: seed must be >= 0, got -1"),
            # the statistic is at most the sum of the weights, since f <= 1
            ("- {ap: lastblock}",
             "- {ap: custom, name: c, t_min: 9, weights: [1.0e+308, 1.0e+308, 1.0e+308, "
             "1.0e+308, 1.0e+308]}",
             "scenarios[0].tests[0]: custom weights must be nonnegative with a finite sum"),
            ("experimental: [1.8]}", "experimental: [1.8, 1.0]}",
             "scenarios[0]: model labels must be unique"),
        ],
    )
    def test_out_of_range_value_reports_path(self, tmp_path, capsys, old, new, message):
        assert old in GOOD_CONFIG
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG.replace(old, new))
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("total_n: 30,", "total_n: 1000002,",
             "scenarios[0].design: total_n must be at most 1000000, got 1000002"),
            ("total_n: 30,", "total_n: 100000000000000000000,",
             "scenarios[0].design: total_n must be at most 1000000, got 100000000000000000000"),
            (DESIGN, "kind: er, total_n: 1000001}",
             "scenarios[0].design: total_n must be at most 1000000, got 1000001"),
            ("evaluation: 1000}", "evaluation: 100000001}",
             "scenarios[0]: replicates_eval must be at most 100000000, got 100000001"),
            ("evaluation: 1000}", "evaluation: 1.0e+20}",
             "scenarios[0]: replicates_eval must be at most 100000000, "
             "got 100000000000000000000"),
            ("calibration: 3000,", "calibration: 100000001,",
             "scenarios[0]: calibration replicates must be at most 100000000, got 100000001"),
        ],
    )
    def test_size_and_budget_ceilings(self, tmp_path, capsys, monkeypatch, old, new, message):
        # the ceilings are checked while the config loads; were one missing,
        # the stand-in run fails the test instead of simulating the budget
        def no_run(manifest):
            raise AssertionError("a config above a ceiling reached the run")

        monkeypatch.setattr(cli, "run", no_run)
        assert old in GOOD_CONFIG
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG.replace(old, new))
        assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "design",
        [
            "kind: standard, total_n: 30, burn_in: 6, block_size: 2, permuted_block_size: 8}",
            "kind: er, total_n: 30, permuted_block_size: 8}",
        ],
    )
    def test_permuted_block_size_is_unknown(self, tmp_path, capsys, design):
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG.replace(DESIGN, design))
        assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "scenarios[0].design.permuted_block_size: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenarios, key_path, expected",
        [
            (("name: dup", "name: dup"), "scenarios[1].name", "already the name of scenarios[0]"),
            (("name: demo", "name: demo-2", "name: demo"), "scenarios[2].name",
             "already the name of scenarios[0]"),
            (("name: sub/x",), "scenarios[0]", f"{UNSAFE_NAME}, got 'sub/x'"),
            (("name: ../escaped",), "scenarios[0]", f"{UNSAFE_NAME}, got '../escaped'"),
            (('name: "nul\\0"',), "scenarios[0]", f"{UNSAFE_NAME}, got 'nul\\x00'"),
            (('name: "a\\tb"',), "scenarios[0]", f"{UNSAFE_NAME}, got 'a\\tb'"),
            (('name: "a\\nb"',), "scenarios[0]", f"{UNSAFE_NAME}, got 'a\\nb'"),
            (('name: "a\\rb"',), "scenarios[0]", f"{UNSAFE_NAME}, got 'a\\rb'"),
            (('name: ""',), "scenarios[0]", f"{UNSAFE_NAME}, got ''"),
            (("name: 7",), "scenarios[0].name", "expected a string"),
        ],
    )
    def test_unsafe_or_repeated_scenario_name_rejected(
        self, tmp_path, capsys, scenarios, key_path, expected
    ):
        # the name is the stem of the scenario's output files
        body = GOOD_CONFIG.replace("scenarios:\n", "")
        config = tmp_path / "c.yaml"
        config.write_text(
            "scenarios:\n" + "".join(body.replace("name: demo", name) for name in scenarios)
        )
        out = tmp_path / "run" / "out"
        assert main(["--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{key_path}: " in err and expected in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.yaml"]

    @pytest.mark.parametrize(
        "name, expected",
        [
            ('"a\\ud800b"', "scenario name must encode as UTF-8, got 'a\\ud800b'"),
            ("x" * 300, "scenario name is too long: '<name>_critical_values.tsv' takes 320 bytes"),
        ],
        ids=["lone-surrogate", "300-characters"],
    )
    def test_name_that_cannot_name_a_file_rejected(self, tmp_path, capsys, name, expected):
        # a lone surrogate (which YAML accepts) or an over-long name fails
        # before any simulation, not when the report is written
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG.replace("name: demo", f"name: {name}"))
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert f"scenarios[0]: {expected}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.yaml"]

    @pytest.mark.parametrize("char", ["\\t", "\\n", "\\r"])
    @pytest.mark.parametrize(
        "old, index",
        [("{ap: lastblock}", 0), ("{comparator: lr, mode: nominal}", 1)],
    )
    def test_tab_or_line_break_in_test_name_rejected(self, tmp_path, capsys, char, old, index):
        # a test name is a field of every report row
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG.replace(old, old[:-1] + f', name: "a{char}b"}}'))
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert (
            f"scenarios[0].tests[{index}]: test name must be non-empty and hold no tab or "
            "line break" in capsys.readouterr().err
        )
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.yaml"]

    def test_integral_float_and_yaml_booleans_accepted(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            GOOD_CONFIG.replace("total_n: 30,", "total_n: 30.0,")
            .replace("on_er: true", "on_er: yes")
            .replace(
                "- {ap: lastblock}",
                "- {ap: custom, name: c, f: indicator, strict: false, "
                "weights: [0,0,0,0,0,0,0,0,0,0,0,0,1]}",
            )
        )
        spec = load_config(path)[0]
        assert spec.design.total_n == 30 and isinstance(spec.design.total_n, int)
        entries = {e.name: e for e in spec.tests}
        assert entries["lr-er"].on_er is True
        assert entries["c"].spec.f.strict is False

    def test_prior_family_mismatch_reported(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(GOOD_CONFIG.replace("kind: gamma, shape: 1.0, rate: 0.001",
                                            "kind: beta, alpha: 1, beta: 1"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_custom_ap_test(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            GOOD_CONFIG.replace(
                "- {ap: lastblock}",
                "- {ap: custom, name: w2, f: indicator, threshold: 0.6, "
                "weights: [0,0,0,0,0,0,0,0,0,0,0,0,1]}",
            )
        )
        spec = load_config(path)[0]
        entry = next(e for e in spec.tests if e.name == "w2")
        assert entry.spec.f.threshold == 0.6


class TestPresets:
    def test_all_presets_instantiate(self):
        for name in preset_names():
            jobs = build_preset(name, seed=1)
            assert jobs
            for job in jobs:
                assert job.scenario.seed == 1

    @pytest.mark.parametrize("preset", preset_names())
    def test_preset_scenario_names_unique(self, preset):
        # each scenario's name is the stem of its output files
        names = [job.scenario.name for job in build_preset(preset)]
        assert len(set(names)) == len(names)
        assert not any("/" in name for name in names)

    def test_phase3_preset_matches_published_design(self):
        jobs = build_preset("phase3-desk")
        grid_jobs = [j for j in jobs if "benefit" not in j.scenario.name]
        assert len(grid_jobs) == 2
        spec = grid_jobs[0].scenario
        assert spec.design.total_n == 500
        assert spec.design.burn_in == 50
        assert spec.design.block_size == 10
        assert spec.alpha == 0.05
        rates = [m.param_experimental for m in spec.alternative_models]
        assert rates == [1.2, 1.4, 1.6, 1.8, 2.0]
        assert spec.replicates_calib == 10**5
        assert spec.replicates_eval == 10**4

    def test_empirical_presets_match_published_settings(self):
        exp = build_preset("empirical-exponential-desk")
        assert all(j.scenario.design.total_n == 121 for j in exp)
        assert all(j.scenario.design.burn_in == 12 for j in exp)
        spec = exp[0].scenario
        assert spec.null_model.param_control == 0.002
        assert spec.alternative_models[0].param_experimental == 0.0035
        binary = build_preset("empirical-binary-desk")
        spec = binary[0].scenario
        assert spec.null_model.param_control == 0.7
        assert spec.alternative_models[0].param_experimental == 0.9

    def test_sweep_presets_list_sized_scenarios(self):
        assert [f.name for f in dataclasses.fields(PresetJob)] == ["scenario", "figure"]
        jobs = build_preset("type1-curve-desk")
        assert len(jobs) == 8
        assert [j.scenario.design.total_n for j in jobs] == [100, 200, 500, 1000] * 2
        for job in jobs:
            spec = job.scenario
            n = spec.design.total_n
            assert spec.name.endswith(f"-n{n}")
            assert (spec.design.block_size, spec.design.num_blocks) == (1, n - 10)
            assert spec.er_design.total_n == n
            assert job.figure == "fig3"
        full = build_preset("large-sample")
        assert [j.scenario.design.total_n for j in full] == [100, 200, 500, 1000, 2000, 5000] * 2

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            build_preset("phase9")


class TestManifest:
    def test_overrides_apply(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(GOOD_CONFIG)
        parser = build_parser()
        args = parser.parse_args(
            ["--config", str(path), "--seed", "99", "--replicates-eval", "500",
             "--out", str(tmp_path)]
        )
        manifest = build_manifest(args)
        spec = manifest.jobs[0].scenario
        assert spec.seed == 99
        assert spec.replicates_eval == 500

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--replicates-eval", "0", "replicates_eval must be >= 1, got 0"),
            ("--replicates-calib", "0", "calibration replicates must be >= 1, got 0"),
            ("--replicates-eval", "100000001",
             "replicates_eval must be at most 100000000, got 100000001"),
            ("--replicates-calib", "100000000000000000000",
             "calibration replicates must be at most 100000000, got 100000000000000000000"),
            ("--seed", "-1", "seed must be >= 0, got -1"),
        ],
    )
    def test_out_of_range_override_rejected_in_manifest(self, tmp_path, flag, value, message):
        path = tmp_path / "c.yaml"
        path.write_text(GOOD_CONFIG)
        args = build_parser().parse_args(["--config", str(path), flag, value])
        with pytest.raises(ConfigError, match=message):
            build_manifest(args)

    def test_mode_override_spares_continuous_ap(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(GOOD_CONFIG)
        parser = build_parser()
        args = parser.parse_args(
            ["--config", str(path), "--mode", "nominal", "--out", str(tmp_path)]
        )
        manifest = build_manifest(args)
        modes = {e.name: e.mode for e in manifest.jobs[0].scenario.tests}
        assert modes["lastblock"] == "calibrated"  # no nominal form exists
        assert modes["lr"] == "nominal"


class TestEndToEnd:
    def test_small_budget_warned_once_per_scenario(self, tmp_path, caplog):
        # the overrides rebuild the scenario; the run that uses the budget warns
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG)
        argv = ["--config", str(config), "--seed", "3", "--alpha", "0.1",
                "--out", str(tmp_path / "out")]
        with caplog.at_level(logging.WARNING, logger="aptest"):
            assert main(argv) == 0
        warned = [r for r in caplog.records if "replicates_eval=1000 gives" in r.getMessage()]
        assert len(warned) == 1

    def test_run_writes_reports_and_reruns_identically(self, tmp_path):
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["--config", str(config), "--out", str(out1)]) == 0
        assert main(["--config", str(config), "--out", str(out2)]) == 0
        r1 = (out1 / "demo_report.tsv").read_bytes()
        assert r1 == (out2 / "demo_report.tsv").read_bytes()
        cv1 = (out1 / "demo_critical_values.tsv").read_bytes()
        assert cv1 == (out2 / "demo_critical_values.tsv").read_bytes()
        assert b"seed=5" in r1

    def test_parallel_run_matches_serial(self, tmp_path):
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG.replace("calibration: 3000", "calibration: 20000"))
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        assert main(["--config", str(config), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["--config", str(config), "--out", str(out2), "--threads", "2"]) == 0
        assert (out1 / "demo_report.tsv").read_bytes() == (out2 / "demo_report.tsv").read_bytes()

    def test_er_design_from_total_n_alone(self, tmp_path):
        config = tmp_path / "c.yaml"
        config.write_text(
            GOOD_CONFIG.replace(DESIGN, "kind: er, total_n: 41}").replace(
                "      - {ap: lastblock}\n", ""
            )
        )
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out)]) == 0
        lines = (out / "demo_report.tsv").read_text().splitlines()[1:]
        header = lines[0].split("\t")
        rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
        assert len(rows) == 4  # 2 models x 2 tests
        for row in rows:
            assert (row["design"], row["N"], row["B"], row["Bprime"]) == ("er", "41", "1", "2")

    def test_config_error_exit_code(self, tmp_path):
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG.replace("alpha: 0.05", "alfa: 0.05"))
        assert main(["--config", str(config), "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "second_replace",
        [
            # custom weights cover blocks 1..13 here, so 3 values are too few
            (("- {ap: lastblock}", "- {ap: custom, name: w3, weights: [1, 1, 1]}"),),
            (("evaluation: 1000}", "evaluation: 0}"),),
            (("evaluation: 1000}", "evaluation: -5}"),),
            (("seed: 5", "seed: -1"),),
            (("shape: 1.0,", "shape: true,"),),
            (("experimental: [1.8]}", "experimental: [1.8], direction: up}"),),
            (("{comparator: lr, mode: nominal}", "{comparator: ttest, mode: nominal}"),),
        ],
    )
    def test_later_scenario_fails_before_any_output(self, tmp_path, capsys, second_replace):
        second = GOOD_CONFIG.replace("scenarios:\n", "").replace("name: demo", "name: bad")
        for old, new in second_replace:
            assert old in second
            second = second.replace(old, new)
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG + second)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert "scenarios[1]" in capsys.readouterr().err
        assert not list(out.glob("*.tsv"))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_non_finite_probability_exits_numerical(self, tmp_path, capsys, threads):
        # outcomes overflow to inf, so the posterior rates and the
        # superiority probability are NaN
        config = tmp_path / "c.yaml"
        config.write_text(
            GOOD_CONFIG.replace("control: 1.0, experimental: [1.8]",
                                "control: 1.0e-310, experimental: [2.0e-310]")
        )
        out = tmp_path / "out"
        argv = ["--config", str(config), "--out", str(out), "--threads", threads]
        assert main(argv) == EXIT_NUMERICAL
        assert "not finite" in capsys.readouterr().err
        assert not list(out.glob("*.tsv"))

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG)
        argv = ["--config", str(config), "--out", str(tmp_path / "out"), "--threads", threads]
        assert main(argv) == EXIT_CONFIG

    def test_jeffreys_binary_scenario_runs_alike_at_any_thread_count(self, tmp_path):
        # a real beta prior has no exact sum; the engine carries from the prior
        config = tmp_path / "c.yaml"
        config.write_text(
            GOOD_CONFIG.replace("family: exponential, control: 1.0, experimental: [1.8]",
                                "family: bernoulli, control: 0.5, experimental: [0.7]")
            .replace("kind: gamma, shape: 1.0, rate: 0.001", "kind: beta, alpha: 0.5, beta: 0.5")
            .replace("comparator: lr", "comparator: fisher")
            .replace("calibration: 3000, evaluation: 1000", "calibration: 2000, evaluation: 500")
        )
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"out-{threads}"
            assert main(["--config", str(config), "--out", str(out), "--threads", threads]) == 0
            outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(outputs["1"]) == {"demo_report.tsv", "demo_critical_values.tsv"}
        assert outputs["1"] == outputs["2"]

    def test_non_integer_gamma_prior_runs(self, tmp_path):
        config = tmp_path / "c.yaml"
        config.write_text(GOOD_CONFIG.replace("shape: 1.0", "shape: 0.5"))
        assert main(["--config", str(config), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "demo_report.tsv").exists()

    def test_no_simulation_path_loads_scipy_stats_or_integrate(self, tmp_path):
        # a fresh interpreter: module sets, not times, so the check is deterministic
        probe = (
            "import sys\n"
            "from aptest import cli\n"
            "import numpy as np\n"
            "from aptest.allocation import DesignConfig, simulate_trial\n"
            "from aptest.engine import simulate_batch\n"
            "from aptest.models import Bernoulli, BetaPrior, OutcomeModel\n"
            "from aptest.stats import ComparatorTest\n"
            f"cli.build_manifest(cli.build_parser().parse_args("
            f"['--preset', 'empirical-binary-desk', '--out', {str(tmp_path / 'out')!r}]))\n"
            "simulate_batch(DesignConfig(121, 12, 1, 109), OutcomeModel(Bernoulli(0.7, 0.9)),\n"
            "               BetaPrior(1.0, 1.0), (ComparatorTest('fisher', 'f'),), 100, seed=0)\n"
            "jeffreys, small = BetaPrior(0.5, 0.5), DesignConfig(24, 4, 4, 5)\n"
            "simulate_trial(small, OutcomeModel(Bernoulli(0.7, 0.9)), jeffreys,\n"
            "               np.random.default_rng(0))\n"
            "simulate_batch(small, OutcomeModel(Bernoulli(0.7, 0.9)), jeffreys,\n"
            "               (ComparatorTest('fisher', 'f'),), 100, seed=0)\n"
            "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stdout.splitlines() == ["[]"]
        assert not (tmp_path / "out").exists()

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "aptest.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "aptest 0.1.0" in result.stdout
