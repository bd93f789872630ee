"""Batch command-line surface.

Subcommands bind YAML run configurations to the library:

* ``estimate``  effect curves (plus inference bands) on user panel data,
* ``simulate``  synthetic replication studies with integrated metrics,
* ``placebo``   pre-intervention placebo curves,
* ``truth``     the simulation ground-truth curve table,
* ``validate``  structural checks on a panel file; fatal violations exit
  with a data error.

All outputs are written into a staging directory that is atomically renamed
to the requested output directory on success, so no partial results ever
appear. A ``run_manifest.json`` (config echo, seed, versions, diagnostics)
accompanies every run and suffices to reproduce it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    apply_overrides,
    load_config,
    parse_bandwidth,
    parse_grid,
    parse_inference,
    parse_pairing,
    parse_permutations,
    parse_placebo,
    parse_run,
    parse_scenario,
    parse_schema,
    parse_specs,
    parse_truth,
    report_unknown,
)
from .curves import CONTROL_NEEDS, DOSE_NEEDS, EstimatorConfig, estimate_curves, write_curve
from .data import load_panel, pair_periods, validate
from .errors import (
    BandwidthError,
    ConfigError,
    DataParseError,
    DataValidationError,
    DoseDidError,
    EstimationError,
    ExtrapolationError,
    FitError,
    PeriodLookupError,
    SchemaError,
)
from .inference import sandwich_bands, weighted_bootstrap
from .nuisance import ModelBank, default_dose_grid
from .panel import placebo_curves
from .simulation import CI_METHODS, MethodReport, ScenarioConfig, ground_truth_curve, run_permutation_study

_EXIT_CODES = {
    "config-error": 2,
    "data-error": 3,
    "estimation-error": 4,
    "io-error": 5,
}


def _error_class(exc: Exception) -> str:
    if isinstance(exc, ConfigError):
        return "config-error"
    if isinstance(exc, (SchemaError, DataParseError, DataValidationError, PeriodLookupError)):
        return "data-error"
    if isinstance(exc, (FitError, BandwidthError, ExtrapolationError, EstimationError, DoseDidError)):
        return "estimation-error"
    if isinstance(exc, OSError):
        return "io-error"
    return "estimation-error"


class _Staging:
    """Write outputs into ``<output>.staging``; rename on success."""

    def __init__(self, output: Path, force: bool):
        self.final = Path(output)
        self.force = force
        self.dir = self.final.with_name(self.final.name + ".staging")

    def __enter__(self) -> Path:
        if self.final.exists() and not self.force:
            raise ConfigError(f"output directory already exists: {self.final} (use --force to replace)")
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        return self.dir

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            if self.final.exists():
                shutil.rmtree(self.final)
            self.dir.rename(self.final)
        else:
            shutil.rmtree(self.dir, ignore_errors=True)
        return False


def _write_manifest(stage: Path, command: str, config: dict, diagnostics: dict, outputs: list):
    manifest = {
        "command": command,
        "config": config,
        "diagnostics": diagnostics,
        "outputs": sorted(outputs),
        "versions": {
            "dosedid": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    path = stage / "run_manifest.json"
    path.write_text(json.dumps(_json_value(manifest, "manifest"), indent=2, sort_keys=True), encoding="utf-8")


def _json_value(value, key: str):
    """``value`` with every numpy scalar and 0-d array inside it made a
    Python value, and each date or time that YAML reads from the config
    written as text. Anything else JSON cannot hold raises a TypeError that
    names its key, instead of reaching the manifest as a string."""
    if isinstance(value, dict):
        return {name: _json_value(item, f"{key}.{name}") for name, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item, f"{key}[{i}]") for i, item in enumerate(value)]
    if isinstance(value, (np.ndarray, np.generic)) and value.shape == ():
        return value.item()
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, datetime.date):
        return str(value)
    raise TypeError(f"{key} is not a JSON value: {type(value).__name__} {value!r}")


def _load_panel(config: dict, problems: list):
    """The panel that the config's ``data`` block names, or None when that
    block or any earlier part of the config has problems (the block's own
    are appended to ``problems``)."""
    data_block = config.get("data")
    if not isinstance(data_block, dict) or "path" not in data_block:
        problems.append("data: need a mapping with a 'path'")
        return None
    schema = parse_schema(data_block.get("schema", {}), problems)
    if problems:
        return None
    return load_panel(data_block["path"], schema)


def _load_two_period(config: dict, problems: list):
    """The (pre, post) dataset of the config's panel and pairing, or None
    as ``_load_panel``; a panel with fatal violations raises."""
    pairing = parse_pairing(config.get("pairing"), problems)
    panel = _load_panel(config, problems)
    if panel is None:
        return None
    _raise_fatal(validate(panel))
    if pairing is None:
        if len(panel.period_labels) != 2:
            raise ConfigError("pairing: required when the panel has more than two periods")
        pairing = panel.period_labels
    return pair_periods(panel, *pairing)


def _raise_fatal(report) -> None:
    """Raise a DataValidationError naming a report's fatal violations, if
    it has any."""
    if report.fatal:
        raise DataValidationError("; ".join(msg for fatal, msg in report.violations if fatal))


def _resolve_grid(grid_req, dataset):
    if isinstance(grid_req, np.ndarray):
        return grid_req
    return default_dose_grid(dataset.dose, size=int(grid_req))


def _maybe_plot(config, stage, name, curve):
    if not config.get("plot"):
        return None
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise ConfigError("plot: true requires matplotlib (install dosedid[plot])") from None
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(curve.grid, curve.psi, label=curve.method)
    if curve.ci_lower is not None:
        ax.fill_between(curve.grid, curve.ci_lower, curve.ci_upper, alpha=0.25)
    ax.axhline(0.0, lw=0.5, color="k")
    ax.set_xlabel("exposure level")
    ax.set_ylabel("effect on the treated")
    ax.legend()
    out = stage / f"{name}.svg"
    fig.savefig(out, format="svg")
    plt.close(fig)
    return out.name


def _cmd_estimate(config: dict, args, problems: list) -> int:
    specs = parse_specs(config.get("nuisance"), problems)
    inference = parse_inference(config.get("inference"), problems)
    grid_req = parse_grid(config, problems)
    run = parse_run(config, problems)
    methods, seed = run.get("methods", ScenarioConfig.methods), run.get("seed", ScenarioConfig.seed)
    output = config.get("output")
    if not output:
        problems.append("output: required")
    bandwidth = parse_bandwidth(config.get("bandwidth"), "bandwidth", problems)
    dataset = _load_two_period(config, problems)
    if problems:
        raise ConfigError(problems)

    grid = _resolve_grid(grid_req, dataset)
    outputs = []
    diagnostics = {}
    # One bank: every model and marginal is fitted once and shared by the
    # methods that read it.
    bank = ModelBank(dataset, grid)
    with _Staging(Path(output), args.force) as stage:
        jobs = {method: (method, bank.models(specs, DOSE_NEEDS[method] + CONTROL_NEEDS[method])) for method in methods}
        curves = estimate_curves(dataset, jobs, grid, bandwidth)
        for method in methods:
            curve, models = curves[method], jobs[method][1]
            if isinstance(curve, DoseDidError):
                raise curve
            if method == "MR":
                if "sandwich" in inference.ci_methods:
                    bands = sandwich_bands(dataset, models, curve, mode=inference.mode)
                    lo, hi, _ = bands
                    sandwich_curve = curve.with_bands(lo, hi)
                    diagnostics[f"{method}_sandwich_bread_cond_max"] = bands.bread_cond_max
                    write_curve(sandwich_curve, stage / f"curve_{method}_sandwich.csv")
                    outputs.append(f"curve_{method}_sandwich.csv")
                if "bootstrap" in inference.ci_methods:
                    est = EstimatorConfig(
                        method=method,
                        specs=specs,
                        grid=grid,
                        bandwidth=curve.bandwidth,
                        on_out_of_range="clamp",
                    )
                    boot = weighted_bootstrap(dataset, est, inference.b_replicates, seed)
                    curve = curve.with_bands(boot.ci_lower, boot.ci_upper)
                    diagnostics.update({f"{method}_bootstrap_{k}": v for k, v in boot.counts.items()})
            write_curve(curve, stage / f"curve_{method}.csv")
            outputs.append(f"curve_{method}.csv")
            plot_name = _maybe_plot(config, stage, f"curve_{method}", curve)
            if plot_name:
                outputs.append(plot_name)
            # TWFE's coefficient vector is the one array-valued diagnostic;
            # every other one is a JSON value and is kept.
            diagnostics[method] = {
                "bandwidth": curve.bandwidth,
                **{k: v for k, v in curve.diagnostics.items() if k != "twfe_coefficients"},
            }
        _write_manifest(stage, "estimate", config, diagnostics, outputs)
    return 0


# report.csv's columns are MethodReport's fields in order, a mapping field
# one column per ci-method (mean_width's named width_<ci-method>), and each
# of summary.json's entries holds the fields but _NOT_SUMMARIZED.
_COLUMN_PREFIX = {"mean_width": "width"}
_NOT_SUMMARIZED = ("method", "misspecified", "flagged")


def _cmd_simulate(config: dict, args, problems: list) -> int:
    scenario = parse_scenario(config, problems)
    perms = parse_permutations(config.get("scenario"), problems)
    output = config.get("output")
    if not output:
        problems.append("output: required")
    if problems:
        raise ConfigError(problems)

    with _Staging(Path(output), args.force) as stage:
        reports = run_permutation_study(scenario, perms or [scenario.misspecified])
        rows, summary = [], {}
        for key in sorted(reports):
            name = "+".join(key) or "none"
            for method, report in sorted(reports[key].methods.items()):
                record = {f.name: getattr(report, f.name) for f in dataclasses.fields(MethodReport)}
                record["misspecified"] = name
                summary.setdefault(name, {})[method] = {k: v for k, v in record.items() if k not in _NOT_SUMMARIZED}
                row = {}
                for field, value in record.items():
                    if isinstance(value, dict):
                        row.update({f"{_COLUMN_PREFIX.get(field, field)}_{ci}": value.get(ci, "") for ci in CI_METHODS})
                    else:
                        row[field] = "" if value is None else value
                rows.append(row)
        with (stage / "report.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        (stage / "summary.json").write_text(
            json.dumps({"scenarios": summary}, indent=2, sort_keys=True), encoding="utf-8"
        )
        _write_manifest(stage, "simulate", config, {}, ["report.csv", "summary.json"])
    return 0


def _cmd_placebo(config: dict, args, problems: list) -> int:
    specs = parse_specs(config.get("nuisance"), problems)
    grid_req = parse_grid(config, problems)
    output = config.get("output")
    if not output:
        problems.append("output: required")
    placebo = parse_placebo(config, problems)
    panel = _load_panel(config, problems)
    if panel is not None:
        _raise_fatal(validate(panel))
    if problems:
        raise ConfigError(problems)

    grid = _resolve_grid(grid_req, panel)
    method, posts = placebo["method"], placebo["posts"]
    curves = placebo_curves(panel, placebo["baseline"], posts, method, specs, placebo.get("intervention"), grid)
    outputs = []
    with _Staging(Path(output), args.force) as stage:
        for post, curve in zip(posts, curves):
            name = f"placebo_{method}_post{post}.csv"
            write_curve(curve, stage / name)
            outputs.append(name)
        _write_manifest(stage, "placebo", config, {}, outputs)
    return 0


def _cmd_truth(config: dict, args, problems: list) -> int:
    output = config.get("output")
    if not output:
        problems.append("output: required")
    keywords = parse_truth(config, problems)
    if problems:
        raise ConfigError(problems)
    truth = ground_truth_curve(**keywords)
    with _Staging(Path(output), args.force) as stage:
        with (stage / "truth.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta", "psi_true", "density_weight"])
            for k in range(truth.grid.shape[0]):
                writer.writerow(
                    [repr(float(truth.grid[k])), repr(float(truth.psi_true[k])), repr(float(truth.density_weights[k]))]
                )
        _write_manifest(stage, "truth", config, {"super_n": truth.super_n, "seed": truth.seed}, ["truth.csv"])
    return 0


def _cmd_validate(config: dict, args, problems: list) -> int:
    panel = _load_panel(config, problems)
    if problems:
        raise ConfigError(problems)
    report = validate(panel)
    for line in report.lines():
        print(line)
    output = config.get("output")
    if output:
        with _Staging(Path(output), args.force) as stage:
            (stage / "validation.txt").write_text("\n".join(report.lines()) + "\n", encoding="utf-8")
            _write_manifest(stage, "validate", config, {"fatal": report.fatal}, ["validation.txt"])
    # The report is printed and written either way; a fatal one is a data error.
    _raise_fatal(report)
    return 0


# Each command with the top-level config keys it reads; ``dispatch`` sets
# ``workers`` for every command.
_COMMANDS = {
    "estimate": (
        _cmd_estimate,
        ("nuisance", "inference", "grid", "methods", "output", "data", "pairing", "seed", "bandwidth", "plot"),
    ),
    "simulate": (_cmd_simulate, ("scenario", "inference", "methods", "seed", "output")),
    "placebo": (_cmd_placebo, ("nuisance", "grid", "output", "placebo", "data", "method")),
    "truth": (_cmd_truth, ("output", "grid_size", "seed", "super_n")),
    "validate": (_cmd_validate, ("data", "output")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dosedid",
        description="Effect curves for difference-in-differences designs with continuous exposures.",
    )
    parser.add_argument("--version", action="version", version=f"dosedid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} workflow")
        p.add_argument("-c", "--config", required=True, help="YAML run configuration")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY.PATH=VALUE",
            help="override a scalar config key (repeatable)",
        )
        p.add_argument("--force", action="store_true", help="replace the output directory if present")
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="cap the study's replicate worker processes (simulate only; default: the usable CPUs). "
            "The bootstrap uses every CPU of the process's affinity set; restrict it with taskset",
        )
    return parser


def dispatch(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        apply_overrides(config, args.overrides)
        if args.workers is not None:
            config["workers"] = args.workers
        command, keys = _COMMANDS[args.command]
        problems: list = []
        report_unknown(config, keys + ("workers",), "config", problems)
        return command(config, args, problems)
    except Exception as exc:  # single-line machine-readable error class
        cls = _error_class(exc)
        message = " ".join(str(exc).split())
        print(f"dosedid: {cls}: {message}", file=sys.stderr)
        return _EXIT_CODES.get(cls, 1)


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
