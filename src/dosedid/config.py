"""Run-configuration parsing and validation for the batch CLI.

Configs are YAML files (key/value with nested sections), one per run.
``--set a.b.c=value`` command-line overrides replace scalar keys before
validation. Validation collects *every* problem before failing so a broken
config surfaces all its issues at once.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

from .curves import checked_grid
from .data import PanelSchema
from .errors import ConfigError, EstimationError
from .inference import pool_size
from .nuisance import NuisanceSpec, default_specs
from .simulation import InferenceConfig, ScenarioConfig

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


def parse_integer(value, key: str, minimum: int | None, problems: list) -> int | None:
    """``value`` when it is an integer (not a bool), and at least ``minimum``
    unless that is None; otherwise None, after reporting ``key``."""
    if type(value) is int and (minimum is None or value >= minimum):
        return value
    bound = "" if minimum is None else f" of at least {minimum}"
    problems.append(f"{key}: expected an integer{bound}, got {value!r}")
    return None


def parse_schema(block: dict, problems: list) -> PanelSchema | None:
    try:
        return PanelSchema.from_dict(block)
    except Exception as exc:
        problems.append(f"data.schema: {exc}")
        return None


_SPEC_KEYS = ("learner", "covariate_map", "kde_bandwidth")
_MU1_KEYS = ("dose_powers", "dose_interactions")


def parse_specs(block: dict | None, problems: list) -> dict[str, NuisanceSpec]:
    """Build the nuisance spec set; absent blocks fall back to defaults.
    Keys a model's block does not read (``_SPEC_KEYS``, plus ``_MU1_KEYS``
    for mu1) are reported as problems."""
    specs = default_specs()
    if not block:
        return specs
    if not isinstance(block, dict):
        problems.append("nuisance: expected a mapping")
        return specs
    out = dict(specs)
    for name, sub in block.items():
        if name not in ("pi_a", "pi_d", "mu1", "mu0"):
            problems.append(f"nuisance.{name}: unknown model name")
            continue
        if not isinstance(sub, dict):
            problems.append(f"nuisance.{name}: expected a mapping")
            continue
        mu1_keys = _MU1_KEYS if name == "mu1" else ()
        report_unknown(sub, _SPEC_KEYS + mu1_keys, f"nuisance.{name}", problems)
        kwargs = {"which": name}
        for key in (k for k in _SPEC_KEYS + mu1_keys if k in sub):
            if key in mu1_keys and not (isinstance(sub[key], list) and all(type(v) is int for v in sub[key])):
                problems.append(f"nuisance.mu1.{key}: expected a list of integers, got {sub[key]!r}")
            else:
                kwargs[key] = sub[key]
        if name == "pi_a" and "learner" not in kwargs:
            kwargs["learner"] = "logistic"
        try:
            out[name] = NuisanceSpec(**kwargs)
        except (TypeError, ValueError) as exc:
            problems.append(f"nuisance.{name}: {exc}")
    return out


_INFERENCE_KEYS = ("method", "B", "mode")


def parse_inference(block: dict | None, problems: list) -> InferenceConfig:
    """The inference block; keys other than ``_INFERENCE_KEYS`` are
    reported as problems."""
    if not block:
        return InferenceConfig()
    if not isinstance(block, dict):
        problems.append("inference: expected a mapping")
        return InferenceConfig()
    report_unknown(block, _INFERENCE_KEYS, "inference", problems)
    # The bootstrap's quantiles need two replicates.
    b_replicates = parse_integer(block.get("B", 200), "inference.B", 2, problems)
    try:
        return InferenceConfig(
            method=str(block.get("method", "none")),
            b_replicates=b_replicates,
            mode=str(block.get("mode", "base")),
        )
    except (TypeError, ValueError) as exc:
        problems.append(f"inference: {exc}")
        return InferenceConfig()


_SCENARIO_KEYS = (
    "n",
    "replicates",
    "misspecified",
    "grid_size",
    "super_n",
    "keep_curves",
    "mu1_dose_powers",
    "mu1_dose_interactions",
    "permutations",
)


def parse_scenario(config: dict, problems: list) -> ScenarioConfig | None:
    """The scenario block (``permutations`` is read by the ``simulate``
    command); keys other than ``_SCENARIO_KEYS`` are reported as problems."""
    block = config.get("scenario")
    if not isinstance(block, dict):
        problems.append("scenario: missing or not a mapping")
        return None
    report_unknown(block, _SCENARIO_KEYS, "scenario", problems)
    inference = parse_inference(config.get("inference"), problems)
    seed = parse_integer(config.get("seed", 0), "seed", None, problems)
    methods = config.get("methods", ["MR"])
    try:
        return ScenarioConfig(
            n=int(block["n"]),
            replicates=int(block.get("replicates", 200)),
            misspecified=frozenset(block.get("misspecified", [])),
            seed=seed,
            methods=tuple(methods),
            grid_size=grid_size(block.get("grid_size", 50)),
            super_n=int(block.get("super_n", 1_000_000)),
            inference=inference,
            workers=int(config.get("workers", pool_size())),
            keep_curves=bool(block.get("keep_curves", False)),
            mu1_dose_powers=tuple(block.get("mu1_dose_powers", (1, 3))),
            mu1_dose_interactions=tuple(block.get("mu1_dose_interactions", (0, 2))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"scenario: {exc!r}")
        return None


def grid_size(value) -> int:
    """``value`` as a grid size; a ValueError below 1. ``parse_grid``,
    ``parse_scenario`` and the ``truth`` command read every size here."""
    size = int(value)
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    return size


def parse_grid(config: dict, problems: list):
    """Grid request: an explicit ndarray of points, or an int size for the
    default percentile rule. A size below 1 (``grid_size``), or points that
    ``curves.checked_grid`` rejects, are reported as problems."""
    block = config.get("grid")
    if block is None:
        return 50
    if isinstance(block, dict):
        report_unknown(block, ("points", "size", "lo", "hi"), "grid", problems)
        if ("lo" in block) != ("hi" in block):
            problems.append("grid: lo and hi go together, got only " + ("lo" if "lo" in block else "hi"))
        try:
            if "points" in block:
                return checked_grid([float(v) for v in block["points"]])
            size = grid_size(block.get("size", 50))
            if "lo" in block and "hi" in block:
                return checked_grid(np.linspace(float(block["lo"]), float(block["hi"]), size))
            return size
        except (TypeError, ValueError, EstimationError) as exc:
            problems.append(f"grid: {exc}")
            return 50
    problems.append("grid: expected a mapping")
    return 50


def parse_pairing(block, problems: list) -> tuple[int, int] | None:
    """The ``(pre, post)`` periods of the ``pairing`` block, or None without
    one; a block that does not name two integer periods is reported."""
    if block is None:
        return None
    if not (isinstance(block, dict) and "pre" in block and "post" in block):
        problems.append("pairing: need a mapping with 'pre' and 'post'")
        return None
    report_unknown(block, ("pre", "post"), "pairing", problems)
    return tuple(parse_integer(block[key], f"pairing.{key}", None, problems) for key in ("pre", "post"))


def parse_bandwidth(value, problems: list):
    """A fixed smoothing bandwidth: None (leave-one-out selection) or a
    finite positive number, as given; anything else is reported."""
    if value is None or (type(value) in (int, float) and 0 < value < np.inf):
        return value
    problems.append(f"bandwidth: expected a positive number, got {value!r}")
    return None
