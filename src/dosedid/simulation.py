"""Synthetic-data studies: data-generating process, ground truth, and a
replication harness with integrated bias/dispersion/coverage metrics.

The main DGP draws four independent standard-normal covariates, a logistic
treatment assignment, a Gaussian dose among treated units, and Gaussian
baseline/follow-up outcomes whose trends are confounded by the covariates
and, for treated units, shaped by the dose through linear, interaction, and
cubic terms. Misspecification is induced by handing the estimators the
Kang-Schafer transform of the covariates instead of the covariates
themselves.

The ground-truth curve is Monte-Carlo integrated over a super-population of
treated units; study metrics integrate pointwise bias, dispersion, and
coverage against the super-population dose density on the evaluation grid.

Replicate-level randomness is counter-based: every stream is keyed by
(study seed, replicate, role), so runs with different nuisance
specifications see identical datasets and replicates can execute in any
order or process without changing results.

The study engine has no estimator code of its own. Each replicate fits its
models through one ``nuisance.ModelBank`` and builds every curve from
``curves.dose_side`` and ``curves.control_side``, the two halves of
``curves.estimate_curve``, so its curves equal ``estimate_curve``'s
bitwise.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .curves import CONTROL_NEEDS, DOSE_NEEDS, METHODS, EstimatorConfig, assemble_curve, control_side, dose_side
from .data import PanelDataset, TwoPeriodDataset
from .errors import DoseDidError, EstimationError
from .inference import sandwich_bands, weighted_bootstrap
from .numeric import expit
from .nuisance import ModelBank, NuisanceSpec, default_specs, kang_schafer_map

__all__ = [
    "ROLE_DATA",
    "ROLE_TRUTH",
    "ROLE_BOOTSTRAP",
    "stream_seed",
    "treated_trend_mean",
    "control_trend_mean",
    "generate_scenario_data",
    "generate_null_data",
    "generate_placebo_panel",
    "kang_schafer_map",
    "GroundTruth",
    "ground_truth_curve",
    "InferenceConfig",
    "ScenarioConfig",
    "MethodReport",
    "ScenarioReport",
    "run_study",
    "run_permutation_study",
    "all_permutations",
    "simulation_specs",
]

ROLE_DATA = 0
ROLE_TRUTH = 1
ROLE_BOOTSTRAP = 2

# Simulation-correct mu1 design: dose, dose^3, and dose interactions with
# the 1st and 3rd covariates, matching the trend structure below.
MU1_DOSE_POWERS = (1, 3)
MU1_DOSE_INTERACTIONS = (0, 2)


def stream_seed(seed: int, *path: int) -> np.random.SeedSequence:
    """Derive an independent, order-free random stream for (seed, *path)."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def _rng(seed) -> np.random.Generator:
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.Philox(ss))


def treated_trend_mean(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Expected treated outcome trend at covariates x and dose d (the +2
    treated-group offset is folded into the constant)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = np.asarray(d, dtype=float)
    base = 3.0 + 0.6 * x[..., 0] + 0.6 * x[..., 1] + 0.9 * x[..., 2] - 0.3 * x[..., 3]
    dose_part = d * (0.04 - 0.1 * x[..., 0] + 0.1 * x[..., 2] - 0.003 * d * d)
    return base + dose_part


def control_trend_mean(x: np.ndarray) -> np.ndarray:
    """Expected control outcome trend at covariates x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return -3.0 - x[..., 0] + 0.7 * x[..., 1] + 0.6 * x[..., 2] - 0.6 * x[..., 3]


def _treatment_probability(x: np.ndarray) -> np.ndarray:
    return expit(-0.1 + 0.05 * x[:, 0] + 0.05 * x[:, 1] - 0.05 * x[:, 2] + 0.15 * x[:, 3])


def _dose_mean(x: np.ndarray) -> np.ndarray:
    return 3.0 + 0.2 * x[:, 0] + 0.25 * x[:, 1] - 0.3 * x[:, 2] + 0.5 * x[:, 3]


def _simulate_arrays(n: int, rng: np.random.Generator):
    x = rng.standard_normal((n, 4))
    a = rng.random(n) < _treatment_probability(x)
    dose_all = _dose_mean(x) + 2.0 * rng.standard_normal(n)
    y0 = (
        10.0
        + 0.4 * x[:, 0]
        - x[:, 1]
        + 0.4 * x[:, 2]
        + 0.3 * x[:, 3]
        + 2.0 * a
        + 0.3 * rng.standard_normal(n)
    )
    trend = np.where(a, treated_trend_mean(x, dose_all), control_trend_mean(x))
    y1 = y0 + trend + 0.7 * rng.standard_normal(n)
    return x, a, dose_all[a], y0, y1


def generate_scenario_data(n: int, seed) -> TwoPeriodDataset:
    """Draw one two-period dataset from the study data-generating process."""
    if n < 1:
        raise ValueError("n must be positive")
    x, a, dose, y0, y1 = _simulate_arrays(n, _rng(seed))
    return TwoPeriodDataset.from_arrays(x=x, a=a, dose=dose, y0=y0, y1=y1)


def generate_null_data(n: int, seed, effect: float = 0.0) -> TwoPeriodDataset:
    """Same covariate/treatment/dose design, but both groups share a flat
    expected trend ``effect``: no dose effect and no trend confounding."""
    rng = _rng(seed)
    x = rng.standard_normal((n, 4))
    a = rng.random(n) < _treatment_probability(x)
    dose_all = _dose_mean(x) + 2.0 * rng.standard_normal(n)
    y0 = 10.0 + x @ np.array([0.4, -1.0, 0.4, 0.3]) + 2.0 * a + 0.3 * rng.standard_normal(n)
    y1 = y0 + effect + 0.7 * rng.standard_normal(n)
    return TwoPeriodDataset.from_arrays(x=x, a=a, dose=dose_all[a], y0=y0, y1=y1)


def generate_placebo_panel(n: int, seed, confounded: bool = True) -> PanelDataset:
    """Three-period panel (labels 0, 1, 2) for placebo testing.

    Periods 0 and 1 both precede the intervention (which lands at period 2
    and carries no effect here). The period-0 to period-1 trend is the same
    function of the first covariate for both groups, so parallel trends
    holds conditionally on covariates; with ``confounded=True`` the first
    covariate also drives treatment and dose strongly, which confounds any
    unadjusted trend comparison.
    """
    rng = _rng(seed)
    x = rng.standard_normal((n, 4))
    a = rng.random(n) < expit(0.8 * x[:, 0])
    dose_all = 3.0 + 1.2 * x[:, 0] + rng.standard_normal(n)
    y0 = 10.0 + 0.5 * x[:, 0] + 0.3 * rng.standard_normal(n)
    pre_trend = (x[:, 0] if confounded else np.zeros(n)) + 0.5 * rng.standard_normal(n)
    y1 = y0 + pre_trend
    y2 = y1 + 0.5 * rng.standard_normal(n)
    ids = tuple(f"u{i}" for i in range(n))
    return PanelDataset(
        ids=ids,
        x=x,
        a=a,
        dose=dose_all[a],
        y=np.column_stack([y0, y1, y2]),
        period_labels=(0, 1, 2),
        covariate_names=("x1", "x2", "x3", "x4"),
    )


@dataclass(frozen=True)
class GroundTruth:
    """Monte-Carlo integrated truth on the shared evaluation grid."""

    grid: np.ndarray
    psi_true: np.ndarray
    density_weights: np.ndarray  # sums to 1 over the grid
    super_n: int
    seed: int

    def __post_init__(self):
        for name in ("grid", "psi_true", "density_weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def ground_truth_curve(
    seed: int,
    super_n: int = 1_000_000,
    grid_size: int = 50,
    treated_trend=None,
    control_trend=None,
) -> GroundTruth:
    """Average treated-minus-control expected trends over a treated
    super-population, on a grid between the treated-dose 10th and 90th
    percentiles; density weights come from the super-population dose
    histogram binned to the grid.

    ``treated_trend(x, d)`` / ``control_trend(x)`` override the study trend
    functions (used to validate the integration against DGP variants with
    known curves)."""
    if super_n < 10_000:
        raise ValueError("super-population must have at least 10,000 units")
    if treated_trend is None:
        treated_trend = treated_trend_mean
    if control_trend is None:
        control_trend = control_trend_mean
    rng = _rng(stream_seed(seed, ROLE_TRUTH))
    x = rng.standard_normal((super_n, 4))
    a = rng.random(super_n) < _treatment_probability(x)
    x_t = x[a]
    dose_t = _dose_mean(x_t) + 2.0 * rng.standard_normal(x_t.shape[0])

    lo, hi = np.percentile(dose_t, [10.0, 90.0])
    grid = np.linspace(lo, hi, grid_size)
    lam0 = control_trend(x_t)
    psi_true = np.empty(grid_size)
    for k, delta in enumerate(grid):
        psi_true[k] = float(np.mean(treated_trend(x_t, delta) - lam0))

    spacing = grid[1] - grid[0]
    edges = np.concatenate([[grid[0] - spacing / 2.0], grid + spacing / 2.0])
    counts, _ = np.histogram(dose_t, bins=edges)
    weights = counts / counts.sum()
    return GroundTruth(
        grid=grid, psi_true=psi_true, density_weights=weights, super_n=int(super_n), seed=int(seed)
    )


@dataclass(frozen=True)
class InferenceConfig:
    """Which interval machinery a study runs per replicate."""

    method: str = "none"  # none | sandwich | bootstrap | both
    b_replicates: int = 200
    mode: str = "base"  # base | augmented

    def __post_init__(self):
        if self.method not in ("none", "sandwich", "bootstrap", "both"):
            raise ValueError(f"unknown inference method {self.method!r}")
        if self.mode not in ("base", "augmented"):
            raise ValueError(f"unknown sandwich mode {self.mode!r}; expected 'base' or 'augmented'")

    @property
    def wants_sandwich(self) -> bool:
        return self.method in ("sandwich", "both")

    @property
    def wants_bootstrap(self) -> bool:
        return self.method in ("bootstrap", "both")


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    replicates: int
    misspecified: frozenset = frozenset()
    seed: int = 0
    methods: tuple[str, ...] = ("MR",)
    grid_size: int = 50
    super_n: int = 1_000_000
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    workers: int = 1
    keep_curves: bool = False
    mu1_dose_powers: tuple[int, ...] = MU1_DOSE_POWERS
    mu1_dose_interactions: tuple[int, ...] = MU1_DOSE_INTERACTIONS

    def __post_init__(self):
        if self.n < 50:
            raise ValueError("scenario n must be at least 50")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown method names {unknown}")
        object.__setattr__(self, "misspecified", frozenset(self.misspecified))
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class MethodReport:
    method: str
    misspecified: tuple[str, ...]
    integrated_abs_bias: float
    integrated_rmse: float
    integrated_sd: float
    failures: int
    flagged: bool
    coverage: dict = field(default_factory=dict)  # ci-method -> percent
    mean_width: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioReport:
    config: ScenarioConfig
    misspecified: tuple[str, ...]
    truth: GroundTruth
    methods: dict
    curves: dict | None = None  # method -> (replicates, grid) array with NaN failure rows


def all_permutations() -> list[frozenset]:
    """All 16 correct/incorrect specification patterns."""
    names = ("pi_a", "pi_d", "mu1", "mu0")
    out = []
    for r in range(5):
        for combo in combinations(names, r):
            out.append(frozenset(combo))
    return out


def simulation_specs(config: ScenarioConfig, misspecified) -> dict[str, NuisanceSpec]:
    return default_specs(
        misspecified,
        mu1_dose_powers=config.mu1_dose_powers,
        mu1_dose_interactions=config.mu1_dose_interactions,
    )


# --------------------------------------------------------------------------
# study engine
# --------------------------------------------------------------------------


def _perm_key(perm) -> tuple[str, ...]:
    return tuple(sorted(perm))


def _replicate_worker(config: ScenarioConfig, perm_keys, truth: GroundTruth, rep: int):
    """One replicate: shared dataset, per-specification estimates.

    Every curve comes from ``curves.dose_side`` and ``curves.control_side``
    over one ``ModelBank``. Each side is computed once per (side, method,
    specs of the models it reads): the dose-side curve depends only on the
    pi_d/mu1 variants and the control-side constant only on the pi_a/mu0
    variants, so a 16-permutation replicate costs 8 fits, 4 marginals and
    4 MR smoothing passes.
    """
    data = generate_scenario_data(config.n, stream_seed(config.seed, rep, ROLE_DATA))
    grid = truth.grid
    bank = ModelBank(data, grid)
    sides: dict = {}
    out_curves: dict = {}
    out_bands: dict = {}
    failures: dict = {}

    def side(kind, method, specs):
        needs = (DOSE_NEEDS if kind == "dose" else CONTROL_NEEDS)[method]
        key = (kind, method, tuple(specs[name] for name in needs))
        if key not in sides:
            models = bank.models(specs, needs)
            if kind == "dose":
                sides[key] = dose_side(data, method, models, grid)
            else:
                sides[key] = control_side(data, method, models)
        return sides[key]

    wants_bands = config.inference.wants_sandwich or config.inference.wants_bootstrap
    for key in perm_keys:
        specs = simulation_specs(config, key)
        for method in config.methods:
            try:
                curve = assemble_curve(method, grid, side("dose", method, specs), side("control", method, specs))
            except DoseDidError as exc:
                failures[(method, key)] = str(exc)
                continue
            out_curves[(method, key)] = curve.psi
            if method == "MR" and wants_bands:
                try:
                    out_bands.update(_replicate_inference(config, data, key, bank.models(specs), curve, rep))
                except DoseDidError as exc:
                    failures[("inference", key)] = str(exc)
    return out_curves, out_bands, failures


def _replicate_inference(config, data, key, models, curve, rep):
    """Sandwich and/or bootstrap bands for the MR curve of one replicate."""
    bands = {}
    if config.inference.wants_sandwich:
        lo, hi, _ = sandwich_bands(data, models, curve, mode=config.inference.mode)
        bands[("sandwich", key)] = (lo, hi)
    if config.inference.wants_bootstrap:
        boot_seed = int(stream_seed(config.seed, rep, ROLE_BOOTSTRAP).generate_state(1)[0])
        est = EstimatorConfig(
            method="MR",
            specs=models.specs,
            grid=curve.grid,
            bandwidth=curve.bandwidth,
            on_out_of_range="clamp",
        )
        result = weighted_bootstrap(data, est, config.inference.b_replicates, boot_seed)
        bands[("bootstrap", key)] = (result.ci_lower, result.ci_upper)
    return bands


def _integrate(weights, values):
    return float(np.sum(weights * values))


def run_permutation_study(
    config: ScenarioConfig,
    permutations,
    truth: GroundTruth | None = None,
    estimator_hook=None,
) -> dict:
    """Run the study once per specification permutation with shared data.

    Returns a dict mapping each permutation (as a sorted name tuple) to its
    ScenarioReport. ``estimator_hook(data, grid) -> psi`` substitutes every
    estimator (testing hook for metric plumbing).
    """
    perms = [frozenset(p) for p in permutations]
    perm_keys = [_perm_key(p) for p in perms]
    if truth is None:
        truth = ground_truth_curve(config.seed, config.super_n, config.grid_size)
    grid = truth.grid
    reps = config.replicates

    if estimator_hook is not None:
        results = []
        for rep in range(reps):
            data = generate_scenario_data(config.n, stream_seed(config.seed, rep, ROLE_DATA))
            psi = np.asarray(estimator_hook(data, grid), dtype=float)
            curves = {(m, k): psi for m in config.methods for k in perm_keys}
            results.append((curves, {}, {}))
    elif config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(
                pool.map(
                    _replicate_worker,
                    [config] * reps,
                    [perm_keys] * reps,
                    [truth] * reps,
                    range(reps),
                    chunksize=max(1, reps // (4 * config.workers)),
                )
            )
    else:
        results = [_replicate_worker(config, perm_keys, truth, rep) for rep in range(reps)]

    reports = {}
    k_grid = grid.shape[0]
    for perm, key in zip(perms, perm_keys):
        method_reports = {}
        curve_archive = {} if config.keep_curves else None
        for method in config.methods:
            psis = np.full((reps, k_grid), np.nan)
            n_fail = 0
            for r, (curves, _, failures) in enumerate(results):
                if (method, key) in curves:
                    psis[r] = curves[(method, key)]
                else:
                    n_fail += 1
            ok = ~np.isnan(psis[:, 0])
            if not np.any(ok):
                raise EstimationError(f"every replicate failed for {method} under {key!r}")
            mean_curve = psis[ok].mean(axis=0)
            bias = _integrate(truth.density_weights, np.abs(mean_curve - truth.psi_true))
            rmse = _integrate(
                truth.density_weights,
                np.sqrt(np.mean((psis[ok] - truth.psi_true[None, :]) ** 2, axis=0)),
            )
            sd = _integrate(
                truth.density_weights,
                psis[ok].std(axis=0, ddof=1) if int(ok.sum()) > 1 else np.zeros(k_grid),
            )
            coverage = {}
            width = {}
            if method == "MR":
                for ci_method in ("sandwich", "bootstrap"):
                    covers = []
                    widths = []
                    for curves, bands, _ in results:
                        if (ci_method, key) not in bands:
                            continue
                        lo, hi = bands[(ci_method, key)]
                        covers.append((lo <= truth.psi_true) & (truth.psi_true <= hi))
                        widths.append(hi - lo)
                    if covers:
                        cov = np.mean(np.asarray(covers, dtype=float), axis=0)
                        coverage[ci_method] = 100.0 * _integrate(truth.density_weights, cov)
                        width[ci_method] = _integrate(
                            truth.density_weights, np.mean(np.asarray(widths), axis=0)
                        )
            method_reports[method] = MethodReport(
                method=method,
                misspecified=key,
                integrated_abs_bias=bias,
                integrated_rmse=rmse,
                integrated_sd=sd,
                failures=n_fail,
                flagged=n_fail > 0.1 * reps,
                coverage=coverage,
                mean_width=width,
            )
            if curve_archive is not None:
                curve_archive[method] = psis
        reports[key] = ScenarioReport(
            config=config,
            misspecified=key,
            truth=truth,
            methods=method_reports,
            curves=curve_archive,
        )
    return reports


def run_study(config: ScenarioConfig, truth: GroundTruth | None = None, estimator_hook=None) -> ScenarioReport:
    """Run the configured scenario (single specification permutation)."""
    reports = run_permutation_study(config, [config.misspecified], truth, estimator_hook)
    return reports[_perm_key(config.misspecified)]
