"""Batch front-end: scenario configs or presets in, delimited reports out.

Every output file embeds the seed, replicate counts, and tool version in a
header comment, and contains nothing run-dependent beyond them, so reruns
of the same manifest are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import __version__
from .allocation import DesignConfig, StandardBRAR, TunedBRAR, sized_design
from .errors import ConfigError, NumericalError
from .harness import (
    CALIBRATED,
    NOMINAL,
    REPORT_COLUMNS,
    PerformanceReport,
    ScenarioSpec,
    TestEntry,
    batch_calls,
    equal_randomization_design,
    export_critical_values,
    export_report,
    model_label,
    results_in_order,
    run_scenario,
    write_rows,
)
from .models import (
    Bernoulli,
    BetaPrior,
    Exponential,
    GammaPrior,
    NormalKnownVar,
    NormalPrior,
    OutcomeModel,
)
from .presets import PresetJob, build_preset, preset_names
from .stats import (
    APTestSpec,
    ComparatorTest,
    CustomWeights,
    Identity,
    Indicator,
    has_nominal_form,
    lastblock_ap_test,
    original_ap_test,
    timedirect_ap_test,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class RunManifest:
    """Fully resolved run: jobs plus I/O and execution settings."""

    jobs: tuple[PresetJob, ...]
    output_dir: Path
    threads: int = 1

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {self.threads}")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return node


def _check_keys(node: dict, allowed: set[str], path: str) -> None:
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _reject(node: dict, keys: tuple[str, ...], path: str, reason: str) -> None:
    # keys that are known but ignored by the kind chosen in this node
    for key in keys:
        if key in node:
            raise ConfigError(f"{path}.{key}: {reason}")


def _require(node: dict, key: str, path: str):
    if key not in node:
        raise ConfigError(f"{path}.{key}: missing required key")
    return node[key]


def _integer(node: dict, key: str, path: str, default: int | None = None) -> int:
    """An integer-valued key; 30.0 is accepted, 30.9, true and "30" are not."""
    value = _require(node, key, path) if default is None else node.get(key, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(
            f"{path}.{key}: expected an integer within floating-point range, got {value!r}"
        )
    return int(value)


def _name(node: dict, path: str, default: str | None = None) -> str:
    """A scenario or test name: a YAML string; its spec checks the characters."""
    name = _require(node, "name", path) if default is None else node.get("name", default)
    if not isinstance(name, str):
        raise ConfigError(f"{path}.name: expected a string, got {name!r}")
    return name


def _as_number(value, path: str) -> float:
    """A finite YAML number; booleans and strings (YAML reads 1.0e3 as one) are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _number(node: dict, key: str, path: str, default: float | None = None) -> float:
    value = _require(node, key, path) if default is None else node.get(key, default)
    return _as_number(value, f"{path}.{key}")


@contextmanager
def _at(path: str):
    """Prefix a constructor's ConfigError with the config path it was built from."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _boolean(node: dict, key: str, path: str, default: bool) -> bool:
    """A YAML boolean key; strings such as "false" or "no" are rejected."""
    value = node.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected true or false, got {value!r}")
    return value


def _parse_design(node, path: str) -> DesignConfig:
    node = _expect_mapping(node, path)
    _check_keys(node, {"kind", "total_n", "burn_in", "block_size"}, path)
    kind = node.get("kind", "standard")
    if kind not in ("standard", "tuned", "er"):
        raise ConfigError(f"{path}.kind: must be standard, tuned, or er, got {kind!r}")
    total_n = _integer(node, "total_n", path)
    if kind == "er":
        _reject(node, ("burn_in", "block_size"), path, "applies only to kind: standard or tuned")
        with _at(path):
            return equal_randomization_design(total_n)
    burn_in = _integer(node, "burn_in", path)
    block_size = _integer(node, "block_size", path, 1)
    with _at(path):
        return sized_design(
            total_n, burn_in, block_size, StandardBRAR() if kind == "standard" else TunedBRAR()
        )


def _parse_models(node, path: str) -> tuple[OutcomeModel, tuple[OutcomeModel, ...]]:
    node = _expect_mapping(node, path)
    _check_keys(
        node,
        {"family", "control", "experimental", "direction", "sd_control",
         "sd_experimental"},
        path,
    )
    family = _require(node, "family", path)
    if family not in ("exponential", "bernoulli", "normal"):
        raise ConfigError(
            f"{path}.family: must be exponential, bernoulli, or normal, got {family!r}"
        )
    if family != "normal":
        _reject(node, ("sd_control", "sd_experimental"), path, "applies only to family: normal")
    direction = node.get("direction", "larger")
    control = _number(node, "control", path)
    raw = _require(node, "experimental", path)
    experimental = [
        _as_number(v, f"{path}.experimental") for v in (raw if isinstance(raw, list) else [raw])
    ]
    if family == "normal":
        sds = (_number(node, "sd_control", path), _number(node, "sd_experimental", path))

    def build(exp_value: float) -> OutcomeModel:
        with _at(path):
            if family == "exponential":
                fam = Exponential(control, exp_value)
            elif family == "bernoulli":
                fam = Bernoulli(control, exp_value)
            else:
                fam = NormalKnownVar(control, exp_value, *sds)
            return OutcomeModel(fam, direction)

    return build(control), tuple(build(v) for v in experimental)


def _parse_prior(node, path: str):
    node = _expect_mapping(node, path)
    kind = _require(node, "kind", path)
    priors = {"gamma": GammaPrior, "beta": BetaPrior, "normal": NormalPrior}
    if not isinstance(kind, str) or kind not in priors:
        raise ConfigError(f"{path}.kind: must be gamma, beta, or normal, got {kind!r}")
    keys = [f.name for f in dataclasses.fields(priors[kind])]
    _check_keys(node, {"kind", *keys}, path)
    values = [_number(node, key, path) for key in keys]
    with _at(path):
        return priors[kind](*values)


_AP_BUILDERS = {
    "original": original_ap_test,
    "timedirect": timedirect_ap_test,
    "lastblock": lastblock_ap_test,
}


def _parse_test(node, path: str) -> TestEntry:
    node = _expect_mapping(node, path)
    _check_keys(
        node,
        {"ap", "comparator", "mode", "on_er", "name", "t_min", "f", "weights",
         "threshold", "strict"},
        path,
    )
    mode = node.get("mode", CALIBRATED)
    on_er = _boolean(node, "on_er", path, False)
    if ("ap" in node) == ("comparator" in node):
        raise ConfigError(f"{path}: specify exactly one of 'ap' or 'comparator'")
    if node.get("ap") != "custom":
        _reject(node, ("f", "weights"), path, "applies only to ap: custom")
    if node.get("f") != "indicator":
        _reject(node, ("threshold", "strict"), path, "applies only to f: indicator")
    if "ap" not in node:
        _reject(node, ("t_min",), path, "applies only to AP tests")
    if "comparator" in node:
        kind = node["comparator"]
        name = _name(node, path, f"{kind}-er" if on_er else str(kind))
        with _at(path):
            spec = ComparatorTest(kind, name)
    else:
        ap = node["ap"]
        t_min = _integer(node, "t_min", path, 1)
        if isinstance(ap, str) and ap in _AP_BUILDERS:
            name = _name(node, path, ap)
            with _at(path):
                spec = _AP_BUILDERS[ap](t_min=t_min, name=name)
        elif ap == "custom":
            weights = _require(node, "weights", path)
            if not isinstance(weights, list):
                raise ConfigError(f"{path}.weights: expected a list of numbers, got {weights!r}")
            w = tuple(_as_number(v, f"{path}.weights[{i}]") for i, v in enumerate(weights))
            f_kind = node.get("f", "identity")
            if f_kind not in ("identity", "indicator"):
                raise ConfigError(f"{path}.f: must be identity or indicator")
            name = _name(node, path)
            threshold = _number(node, "threshold", path, 0.5)
            strict = _boolean(node, "strict", path, True)
            with _at(path):
                f = Indicator(threshold, strict) if f_kind == "indicator" else Identity()
                spec = APTestSpec(name=name, f=f, w=CustomWeights(w), t_min=t_min)
        else:
            raise ConfigError(
                f"{path}.ap: must be original, timedirect, lastblock, or custom"
            )
    with _at(path):
        return TestEntry(spec, mode=mode, on_er=on_er)


def _parse_scenario(node, index: int) -> ScenarioSpec:
    path = f"scenarios[{index}]"
    node = _expect_mapping(node, path)
    _check_keys(
        node,
        {"name", "design", "outcome", "prior", "alpha", "seed", "replicates", "tests"},
        path,
    )
    name = _name(node, path, f"scenario-{index}")
    design = _parse_design(_require(node, "design", path), f"{path}.design")
    null_model, alternatives = _parse_models(_require(node, "outcome", path), f"{path}.outcome")
    prior = _parse_prior(_require(node, "prior", path), f"{path}.prior")
    reps = _expect_mapping(node.get("replicates", {}), f"{path}.replicates")
    _check_keys(reps, {"calibration", "evaluation"}, f"{path}.replicates")
    tests_node = node.get("tests", [])
    if not isinstance(tests_node, list):
        raise ConfigError(f"{path}.tests: expected a list")
    tests = tuple(
        _parse_test(t, f"{path}.tests[{i}]") for i, t in enumerate(tests_node)
    )
    replicates_eval = _integer(reps, "evaluation", f"{path}.replicates", 10**5)
    replicates_calib = _integer(reps, "calibration", f"{path}.replicates", 10**6)
    seed = _integer(node, "seed", path, 0)
    alpha = _number(node, "alpha", path, 0.05)
    with _at(path):
        return ScenarioSpec(
            name=name,
            design=design,
            prior=prior,
            null_model=null_model,
            alternative_models=alternatives,
            tests=tests,
            alpha=alpha,
            replicates_eval=replicates_eval,
            replicates_calib=replicates_calib,
            seed=seed,
        )


def load_config(path) -> list[ScenarioSpec]:
    """Parse and fully validate a scenario config document."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not a valid config document: {exc}") from exc
    doc = _expect_mapping(doc, str(path))
    _check_keys(doc, {"scenarios"}, str(path))
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ConfigError(f"{path}.scenarios: expected a non-empty list")
    specs = [_parse_scenario(node, i) for i, node in enumerate(scenarios)]
    names = [spec.name for spec in specs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(
                f"scenarios[{i}].name: {name!r} is already the name of "
                f"scenarios[{names.index(name)}], and would overwrite its output files"
            )
    return specs


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _apply_overrides(spec: ScenarioSpec, args) -> ScenarioSpec:
    updates = {}
    for key in ("seed", "alpha", "replicates_eval", "replicates_calib"):
        value = getattr(args, key)
        if value is not None:
            updates[key] = value
    if args.mode is not None:
        updates["tests"] = tuple(
            dataclasses.replace(e, mode=args.mode if has_nominal_form(e.spec) else CALIBRATED)
            for e in spec.tests
        )
    return dataclasses.replace(spec, **updates) if updates else spec


def _summarize(report: PerformanceReport) -> str:
    lines = [
        f"scenario {report.scenario}: eval={report.replicates_eval} "
        f"calib={report.replicates_calib} seed={report.seed} "
        f"wall={report.wall_time:.1f}s"
    ]
    width = max((len(r.test) for r in report.rows), default=4)
    for r in report.rows:
        label = model_label(r.family, r.param_control, r.param_experimental)
        lines.append(
            f"  {label:<28} {r.test:<{width}} [{r.mode}] "
            f"reject={r.rejection_rate:6.4f} (se {r.mc_se:.4f}) "
            f"benefit={r.pct_better_mean:5.1f}% outcome={r.mean_outcome:.4g}"
        )
    for name, cv in report.critical_values.items():
        flag = " DEGENERATE(never rejects)" if cv.degenerate_max else ""
        lines.append(
            f"  cv[{name}] = {cv.q_alpha:.6g} (achieved alpha {cv.achieved_alpha:.4f}){flag}"
        )
    return "\n".join(lines)


def run(manifest: RunManifest) -> int:
    """Execute every job and write reports; returns a process exit code."""
    out = manifest.output_dir
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    figure_rows: dict[str, list] = {}
    # one queue for the whole run: a scenario's batches start while the one
    # before it still reads its last results
    calls = [call for job in manifest.jobs for call in batch_calls(job.scenario, manifest.threads)]
    with closing(results_in_order(calls, manifest.threads)) as results:
        for job in manifest.jobs:
            null = job.scenario.null_model
            report = run_scenario(job.scenario, results=results)
            export_report(out / f"{report.scenario}_report.tsv", report)
            if report.critical_values:
                export_critical_values(
                    out / f"{report.scenario}_critical_values.tsv",
                    report.critical_values,
                    report.replicates_calib,
                    report.seed,
                    model_label(null.kind, null.param_control, null.param_experimental),
                )
            print(_summarize(report))
            if job.figure:
                figure_rows.setdefault(job.figure, []).extend(report.rows)
    for figure, rows in figure_rows.items():
        _write_figure_data(out / f"{figure}_data.tsv", rows)
    print(f"done in {time.perf_counter() - started:.1f}s -> {out}")
    return EXIT_OK


#: Figure data omits the report's block layout and patient-benefit columns.
_FIGURE_COLUMNS = tuple(
    column
    for column in REPORT_COLUMNS
    if column[0] not in ("B", "Bprime", "pct_better_mean", "pct_better_sd", "mean_outcome")
)


def _write_figure_data(path: Path, rows) -> None:
    # One aggregated file per figure tag, rewritten whole for rerun identity.
    write_rows(path, rows, _FIGURE_COLUMNS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aptest",
        description=(
            "Simulate two-arm response-adaptive trials, calibrate allocation-"
            "probability tests by Monte Carlo, and report operating characteristics."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="scenario config file (YAML)")
    source.add_argument(
        "--preset",
        help="built-in study: " + ", ".join(preset_names()),
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--alpha", type=float, default=None, help="significance level override")
    parser.add_argument("--replicates-eval", type=int, default=None)
    parser.add_argument("--replicates-calib", type=int, default=None)
    parser.add_argument(
        "--threads", type=int, default=1, help="worker processes, at most the CPU count"
    )
    parser.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    parser.add_argument(
        "--mode",
        choices=(NOMINAL, CALIBRATED),
        default=None,
        help="force a decision mode on every test that supports it",
    )
    parser.add_argument("--version", action="version", version=f"aptest {__version__}")
    return parser


def build_manifest(args) -> RunManifest:
    if args.preset:
        jobs = build_preset(args.preset, seed=args.seed if args.seed is not None else 0)
        jobs = tuple(
            dataclasses.replace(j, scenario=_apply_overrides(j.scenario, args))
            for j in jobs
        )
        return RunManifest(jobs=jobs, output_dir=args.out, threads=args.threads)
    jobs = tuple(PresetJob(_apply_overrides(s, args)) for s in load_config(args.config))
    return RunManifest(jobs=jobs, output_dir=args.out, threads=args.threads)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        manifest = build_manifest(args)
        return run(manifest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
