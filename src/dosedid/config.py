"""Run-configuration parsing and validation for the batch CLI.

Configs are YAML files (key/value with nested sections), one per run.
``--set a.b.c=value`` command-line overrides replace scalar keys before
validation. Validation collects *every* problem before failing so a broken
config surfaces all its issues at once.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .curves import METHODS, checked_grid
from .data import PanelSchema
from .errors import ConfigError, EstimationError
from .nuisance import DOSE_GRID_SIZE, VALID_WHICH, NuisanceSpec, default_specs
from .simulation import MIN_SUPER_N, InferenceConfig, ScenarioConfig, all_permutations

__all__ = ["load_config", "apply_overrides", "parse_schema", "parse_specs", "parse_scenario", "parse_inference"]

def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse failure: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return raw


def apply_overrides(config: dict, overrides) -> dict:
    """Apply ``key.path=value`` overrides; values parse as YAML scalars."""
    problems = []
    for item in overrides:
        if "=" not in item:
            problems.append(f"override {item!r} is not key=value")
            continue
        key, _, value = item.partition("=")
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                problems.append(f"override {key!r} crosses a non-mapping node")
                break
        else:
            node[parts[-1]] = yaml.safe_load(value)
    if problems:
        raise ConfigError(problems)
    return config


def report_unknown(block: dict, known, where: str, problems: list) -> None:
    """Report the keys of ``block`` outside ``known`` as one problem of
    ``where``: a key that nothing reads would otherwise be dropped."""
    unknown = [str(k) for k in block if k not in known]
    if unknown:
        problems.append(f"{where}: unknown keys {', '.join(unknown)}")


def _parser(test, expected: str, convert=None):
    """A parser of one config value: the value, or ``convert`` of it, when
    ``test`` holds; otherwise None, after reporting that its key expected
    ``expected``."""

    def parse(value, key: str, problems: list):
        if test(value):
            return value if convert is None else convert(value)
        problems.append(f"{key}: expected {expected}, got {value!r}")
        return None

    return parse


def _is_integer(value, minimum=None) -> bool:
    return type(value) is int and (minimum is None or value >= minimum)  # a bool is no integer


def _is_list_of(value, test) -> bool:
    return isinstance(value, list) and all(map(test, value))


def _at_least(minimum: int):
    """A parser of an integer of at least ``minimum``: the value, or None
    after reporting its key."""

    def parse(value, key: str, problems: list) -> int | None:
        block, _, name = key.rpartition(".")
        if type(value) is not int:
            problems.append(f"{key}: expected an integer, got {value!r}")
        elif value < minimum:
            problems.append(f"{block or key}: {name} must be at least {minimum:,}, got {value}")
        else:
            return value
        return None

    return parse


# ``parse_grid``, ``parse_scenario`` and the ``truth`` command read every
# grid size, and both read ``super_n``, by these rules.
grid_size = _at_least(1)
_SUPER_N = _at_least(MIN_SUPER_N)


_ANY = _parser(lambda value: True, "")  # a value its dataclass checks
_INTEGER = _parser(_is_integer, "an integer")
_INTEGERS = _parser(lambda v: _is_list_of(v, _is_integer), "a list of integers", tuple)
_METHODS = f"method names ({', '.join(METHODS)})"
_NUISANCES = f"nuisance names ({', '.join(VALID_WHICH)})"
# Each config block's keys with the parsers of their values. A key the
# config leaves out is not passed on, so the dataclass or function that
# reads it keeps its own default (docs/DECISIONS.md, D21).
_RUN_KEYS = {
    "seed": _INTEGER,
    "methods": _parser(lambda v: _is_list_of(v, METHODS.__contains__), "a list of " + _METHODS, tuple),
    "workers": _parser(lambda v: _is_integer(v, 1), "an integer of at least 1"),
}
_SCENARIO_KEYS = {
    "n": _INTEGER,
    "replicates": _INTEGER,
    "misspecified": _parser(lambda v: _is_list_of(v, VALID_WHICH.__contains__), "a list of " + _NUISANCES, tuple),
    "grid_size": grid_size,
    "super_n": _SUPER_N,
    "keep_curves": _parser(lambda v: type(v) is bool, "true or false"),
    "mu1_dose_powers": _INTEGERS,
    "mu1_dose_interactions": _INTEGERS,
}
# The bootstrap's quantiles need two replicates.
_INFERENCE_KEYS = {"method": _ANY, "B": _parser(lambda v: _is_integer(v, 2), "an integer of at least 2"), "mode": _ANY}
_TRUTH_KEYS = {"seed": _INTEGER, "super_n": _SUPER_N, "grid_size": grid_size}
_PLACEBO_KEYS = {
    "baseline": _INTEGER,
    "posts": _parser(lambda v: v != [] and _is_list_of(v, _is_integer), "a non-empty list of integers", tuple),
    "intervention": _INTEGER,
}
_PLACEBO_METHOD = _parser(METHODS.__contains__, "one of the " + _METHODS)
_PERMUTATIONS = _parser(
    lambda v: _is_list_of(v, lambda p: _is_list_of(p, VALID_WHICH.__contains__)),
    "'all' or a list of lists of " + _NUISANCES,
    lambda v: [frozenset(p) for p in v],
)
_SPEC_KEYS = {"learner": _ANY, "covariate_map": _ANY, "kde_bandwidth": _ANY}
_MU1_KEYS = {"dose_powers": _INTEGERS, "dose_interactions": _INTEGERS}


def _parsed(block: dict, keys: dict, prefix: str, problems: list) -> dict:
    """Each key of ``keys`` that ``block`` sets, with its value as its
    parser gives it; a key whose value the parser reports, as ``prefix`` +
    key, is left out."""
    out = {}
    for key in (k for k in keys if k in block):
        found = len(problems)
        value = keys[key](block[key], prefix + key, problems)
        if len(problems) == found:
            out[key] = value
    return out


def parse_schema(block: dict, problems: list) -> PanelSchema | None:
    try:
        return PanelSchema.from_dict(block)
    except Exception as exc:
        problems.append(f"data.schema: {exc}")
        return None


def parse_specs(block: dict | None, problems: list) -> dict[str, NuisanceSpec]:
    """Build the nuisance spec set: a model's block sets keys of its
    ``default_specs`` spec. Keys a model's block does not read
    (``_SPEC_KEYS``, plus ``_MU1_KEYS`` for mu1) are reported as problems."""
    specs = default_specs()
    if not block:
        return specs
    if not isinstance(block, dict):
        problems.append("nuisance: expected a mapping")
        return specs
    out = dict(specs)
    for name, sub in block.items():
        if name not in VALID_WHICH:
            problems.append(f"nuisance.{name}: unknown model name")
            continue
        if not isinstance(sub, dict):
            problems.append(f"nuisance.{name}: expected a mapping")
            continue
        keys = {**_SPEC_KEYS, **_MU1_KEYS} if name == "mu1" else _SPEC_KEYS
        report_unknown(sub, keys, f"nuisance.{name}", problems)
        try:
            out[name] = replace(specs[name], **_parsed(sub, keys, f"nuisance.{name}.", problems))
        except (TypeError, ValueError) as exc:
            problems.append(f"nuisance.{name}: {exc}")
    return out


def parse_run(config: dict, problems: list) -> dict:
    """The top-level ``seed``, ``methods`` and ``workers`` that the config
    sets, as ScenarioConfig's keywords."""
    return _parsed(config, _RUN_KEYS, "", problems)


def parse_inference(block: dict | None, problems: list) -> InferenceConfig:
    """The inference block; keys other than ``_INFERENCE_KEYS`` are
    reported as problems."""
    if block is None:
        return InferenceConfig()
    if not isinstance(block, dict):
        problems.append("inference: expected a mapping")
        return InferenceConfig()
    report_unknown(block, _INFERENCE_KEYS, "inference", problems)
    keywords = _parsed(block, _INFERENCE_KEYS, "inference.", problems)
    if "B" in keywords:
        keywords["b_replicates"] = keywords.pop("B")
    try:
        return InferenceConfig(**keywords)
    except ValueError as exc:
        problems.append(f"inference: {exc}")
        return InferenceConfig()


def parse_scenario(config: dict, problems: list) -> ScenarioConfig | None:
    """The study of the scenario block, the inference block and the keys of
    ``parse_run``, or None after reporting its problems. ``permutations``
    is the ``simulate`` command's (``parse_permutations``); keys other than
    it and ``_SCENARIO_KEYS`` are reported as problems."""
    block = config.get("scenario")
    if not isinstance(block, dict):
        problems.append("scenario: missing or not a mapping")
        return None
    report_unknown(block, (*_SCENARIO_KEYS, "permutations"), "scenario", problems)
    found = len(problems)
    keywords = {**_parsed(block, _SCENARIO_KEYS, "scenario.", problems), **parse_run(config, problems)}
    inference = parse_inference(config.get("inference"), problems)
    if len(problems) > found:
        return None
    try:
        return ScenarioConfig(**keywords, inference=inference)
    except (TypeError, ValueError) as exc:
        problems.append(f"scenario: {exc}")
        return None


def parse_permutations(block, problems: list) -> list | None:
    """The scenario block's ``permutations`` as frozensets: all 16 for
    ``all``, else a list of lists of nuisance names; None when it names
    none."""
    value = block.get("permutations") if isinstance(block, dict) else None
    if value == "all":
        return all_permutations()
    return None if value in (None, []) else _PERMUTATIONS(value, "scenario.permutations", problems)


def parse_truth(config: dict, problems: list) -> dict:
    """``ground_truth_curve``'s keywords: the top-level ``seed``,
    ``super_n`` and ``grid_size`` that the config sets, and ScenarioConfig's
    seed when it sets none."""
    return {"seed": ScenarioConfig.seed, **_parsed(config, _TRUTH_KEYS, "", problems)}


def parse_placebo(config: dict, problems: list) -> dict:
    """The placebo block's ``baseline``, ``posts`` and ``intervention``
    that it sets, and the top-level ``method``, MR unless it names one."""
    block = config.get("placebo")
    if not isinstance(block, dict) or "baseline" not in block or "posts" not in block:
        problems.append("placebo: need a mapping with 'baseline' and 'posts'")
        return {}
    report_unknown(block, _PLACEBO_KEYS, "placebo", problems)
    method = _PLACEBO_METHOD(config.get("method", "MR"), "method", problems)
    return {"method": method, **_parsed(block, _PLACEBO_KEYS, "placebo.", problems)}


def parse_grid(config: dict, problems: list):
    """Grid request: an explicit ndarray of points, or an int size for the
    default percentile rule, ``DOSE_GRID_SIZE`` unless the block sets one.
    A size that ``grid_size`` rejects, or points that
    ``curves.checked_grid`` rejects, are reported as problems."""
    block = config.get("grid")
    if block is None:
        return DOSE_GRID_SIZE
    if not isinstance(block, dict):
        problems.append("grid: expected a mapping")
        return DOSE_GRID_SIZE
    report_unknown(block, ("points", "size", "lo", "hi"), "grid", problems)
    if ("lo" in block) != ("hi" in block):
        problems.append("grid: lo and hi go together, got only " + ("lo" if "lo" in block else "hi"))
    size = grid_size(block["size"], "grid.size", problems) if "size" in block else DOSE_GRID_SIZE
    try:
        if "points" in block:
            return checked_grid([float(v) for v in block["points"]])
        if "lo" in block and "hi" in block and size is not None:
            return checked_grid(np.linspace(float(block["lo"]), float(block["hi"]), size))
    except (TypeError, ValueError, EstimationError) as exc:
        problems.append(f"grid: {exc}")
    return DOSE_GRID_SIZE if size is None else size


def parse_pairing(block, problems: list) -> tuple[int, int] | None:
    """The ``(pre, post)`` periods of the ``pairing`` block, or None without
    one; a block that does not name two integer periods is reported."""
    if block is None:
        return None
    if not (isinstance(block, dict) and "pre" in block and "post" in block):
        problems.append("pairing: need a mapping with 'pre' and 'post'")
        return None
    report_unknown(block, ("pre", "post"), "pairing", problems)
    return tuple(_INTEGER(block[key], f"pairing.{key}", problems) for key in ("pre", "post"))


# A fixed smoothing bandwidth: None (leave-one-out selection) or a finite
# positive number.
parse_bandwidth = _parser(lambda v: v is None or (type(v) in (int, float) and 0 < v < np.inf), "a positive number")
