"""Synthetic-data studies: data-generating process, ground truth, and a
replication harness with integrated bias/dispersion/coverage metrics.

The main DGP draws four independent standard-normal covariates, a logistic
treatment assignment, a Gaussian dose among treated units, and Gaussian
baseline/follow-up outcomes whose trends are confounded by the covariates
and, for treated units, shaped by the dose through linear, interaction, and
cubic terms. Misspecification is induced by handing the estimators the
Kang-Schafer transform of the covariates instead of the covariates
themselves.

The ground-truth curve and the treated-dose law are integrated exactly, by
Gauss-Hermite quadrature over the covariates weighted by the known
propensity; study metrics integrate pointwise bias, dispersion, and
coverage against that dose law binned to the evaluation grid.

Replicate-level randomness is counter-based: every stream is keyed by
(study seed, replicate, role), so runs with different nuisance
specifications see identical datasets and replicates can execute in any
order or process without changing results.

The study engine has no estimator code of its own. Each replicate fits its
models through one ``nuisance.ModelBank`` and builds every curve in one
``curves.estimate_curves`` call, the engine behind ``curves.estimate_curve``,
so its curves equal ``estimate_curve``'s bitwise.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .curves import CONTROL_NEEDS, DOSE_NEEDS, METHODS, EstimatorConfig, estimate_curves
from .data import PanelDataset, TwoPeriodDataset
from .errors import DoseDidError, EstimationError
from .inference import BOOTSTRAP_REPLICATES, fork_map, pool_size, sandwich_bands, weighted_bootstrap
from .numeric import expit
from .nuisance import DOSE_GRID_SIZE, ModelBank, NuisanceSpec, default_specs, kang_schafer_map

__all__ = [
    "ROLE_DATA",
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
    "run_permutation_study",
    "all_permutations",
    "simulation_specs",
]

ROLE_DATA = 0
ROLE_BOOTSTRAP = 2

# Simulation-correct mu1 design: dose, dose^3, and dose interactions with
# the 1st and 3rd covariates, matching the trend structure below.
MU1_DOSE_POWERS = (1, 3)
MU1_DOSE_INTERACTIONS = (0, 2)
_SUPER_N = 1_000_000  # the study truth's recorded super-population size (D9)
MIN_SUPER_N = 10_000  # the smallest super_n that ground_truth_curve and the config take
CI_METHODS = ("sandwich", "bootstrap")


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


# (intercept, slopes) of the two linear indices in X: P(A=1 | X) is expit of
# the first, and a treated unit's dose is the second plus _DOSE_SD times
# standard normal noise.
_PROPENSITY_INDEX = (-0.1, (0.05, 0.05, -0.05, 0.15))
_DOSE_INDEX = (3.0, (0.2, 0.25, -0.3, 0.5))
_DOSE_SD = 2.0


def _linear_index(x: np.ndarray, index) -> np.ndarray:
    # Summed term by term from the left, as the written-out formula sums, so
    # the generated data do not depend on how the coefficients are stored.
    intercept, slopes = index
    out = intercept + slopes[0] * x[:, 0]
    for j in range(1, len(slopes)):
        out = out + slopes[j] * x[:, j]
    return out


def _treatment_probability(x: np.ndarray) -> np.ndarray:
    return expit(_linear_index(x, _PROPENSITY_INDEX))


def _dose_mean(x: np.ndarray) -> np.ndarray:
    return _linear_index(x, _DOSE_INDEX)


def _simulate_arrays(n: int, rng: np.random.Generator):
    x = rng.standard_normal((n, 4))
    a = rng.random(n) < _treatment_probability(x)
    dose_all = _dose_mean(x) + _DOSE_SD * rng.standard_normal(n)
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


def generate_null_data(n: int, seed) -> TwoPeriodDataset:
    """Same covariate/treatment/dose design, but both groups share a flat
    expected trend of zero: no dose effect and no trend confounding."""
    rng = _rng(seed)
    x = rng.standard_normal((n, 4))
    a = rng.random(n) < _treatment_probability(x)
    dose_all = _dose_mean(x) + _DOSE_SD * rng.standard_normal(n)
    y0 = 10.0 + x @ np.array([0.4, -1.0, 0.4, 0.3]) + 2.0 * a + 0.3 * rng.standard_normal(n)
    y1 = y0 + 0.7 * rng.standard_normal(n)
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
    """The study's true effect curve on the shared evaluation grid, with the
    treated-dose law binned to the grid, both by quadrature (D9).

    ``super_n`` and ``seed`` are recorded as given; no number depends on
    them."""

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


# Gauss-Hermite nodes per covariate of the tensor rule for psi, and of the
# one-dimensional rule for the treated-dose law. With 10 nodes per axis psi
# of the study trends sits within 3e-15 of its closed form, and 14 nodes
# per axis or 100 for the dose law move no output by more than 4e-15 (D9).
_TRUTH_NODES = 10
_DOSE_LAW_NODES = 60


def _normal_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (summing to 1) of E[g(Z)], Z ~ N(0, 1)."""
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    return z, w / w.sum()


def _treated_covariate_rule() -> tuple[np.ndarray, np.ndarray]:
    """Tensor nodes for X ~ N(0, I_4) with weights proportional to the rule
    weight times p(X), summing to 1: a rule for E[g(X) | A=1]."""
    z, w = _normal_rule(_TRUTH_NODES)
    p = len(_PROPENSITY_INDEX[1])
    x = np.stack([axis.ravel() for axis in np.meshgrid(*[z] * p, indexing="ij")], axis=1)
    weight = np.prod(np.meshgrid(*[w] * p, indexing="ij"), axis=0).ravel() * _treatment_probability(x)
    return x, weight / weight.sum()


_erfc = np.vectorize(math.erfc, otypes=[float])


def _treated_dose_cdf():
    """F(d) = P(D <= d | A=1) as a function of an array of doses.

    Given X the dose is N(m(X), _DOSE_SD^2) with m linear. Write X's
    component along the propensity slopes b as U = b.X / |b| ~ N(0, 1); m(X)
    given U is normal with mean c0 + alpha U and variance s^2, the squared
    norm of the dose slopes' part orthogonal to b. So D given U is
    N(c0 + alpha U, _DOSE_SD^2 + s^2), and F is a one-dimensional average
    over U weighted by p = expit(b0 + |b| U)."""
    b0, b = _PROPENSITY_INDEX
    c0, c = _DOSE_INDEX
    b, c = np.asarray(b), np.asarray(c)
    norm_b = float(np.linalg.norm(b))
    alpha = float(c @ b) / norm_b
    scale = math.sqrt(_DOSE_SD**2 + float(c @ c) - alpha * alpha)
    u, w = _normal_rule(_DOSE_LAW_NODES)
    weight = w * expit(b0 + norm_b * u)
    weight = weight / weight.sum()
    means = c0 + alpha * u
    width = scale * math.sqrt(2.0)

    def cdf(doses) -> np.ndarray:
        z = (np.asarray(doses, dtype=float)[..., None] - means) / width
        # Phi(t) = erfc(-t / sqrt 2) / 2, accurate in both tails.
        return 0.5 * (_erfc(-z) @ weight)

    return cdf


def _quantile(cdf, level: float) -> float:
    """Solve cdf(d) = level by bisection, to adjacent floating-point numbers.
    The dose law puts no mass in floating point beyond +-1e3."""
    lo, hi = -1e3, 1e3
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if cdf(mid) < level:
            lo = mid
        else:
            hi = mid
    return hi


def ground_truth_curve(seed: int, super_n: int = _SUPER_N, grid_size: int = DOSE_GRID_SIZE) -> GroundTruth:
    """The study's true effect curve, psi(delta) = E[mu1(X, delta) - mu0(X)
    | A=1], on a grid between the treated-dose 10th and 90th percentiles,
    with density weights the treated-dose probability of each grid point's
    bin (edges halfway between grid points), normalised to sum 1.

    All of it is quadrature over X ~ N(0, I_4) weighted by the known
    propensity p(X) (D9): psi on a tensor Gauss-Hermite rule, and the
    treated-dose law, a p(X)-weighted mixture of normals, by a
    one-dimensional rule. Nothing is drawn: ``seed`` and ``super_n`` change
    no number and are kept for the callers that pass them."""
    if super_n < MIN_SUPER_N:
        raise ValueError(f"super-population must have at least {MIN_SUPER_N:,} units")
    cdf = _treated_dose_cdf()
    grid = np.linspace(_quantile(cdf, 0.1), _quantile(cdf, 0.9), grid_size)

    x, weight = _treated_covariate_rule()
    lam0 = control_trend_mean(x)
    psi_true = np.array([weight @ (treated_trend_mean(x, delta) - lam0) for delta in grid])

    spacing = grid[1] - grid[0]
    edges = np.concatenate([[grid[0] - spacing / 2.0], grid + spacing / 2.0])
    probabilities = np.diff(cdf(edges))
    weights = probabilities / probabilities.sum()
    return GroundTruth(
        grid=grid, psi_true=psi_true, density_weights=weights, super_n=int(super_n), seed=int(seed)
    )


@dataclass(frozen=True)
class InferenceConfig:
    """Which interval machinery a study runs per replicate."""

    method: str = "none"  # none | sandwich | bootstrap | both
    b_replicates: int = BOOTSTRAP_REPLICATES
    mode: str = "base"  # base | augmented

    def __post_init__(self):
        if self.method not in ("none", "sandwich", "bootstrap", "both"):
            raise ValueError(f"unknown inference method {self.method!r}")
        if self.mode not in ("base", "augmented"):
            raise ValueError(f"unknown sandwich mode {self.mode!r}; expected 'base' or 'augmented'")

    @property
    def ci_methods(self) -> tuple[str, ...]:
        """The band methods that ``method`` runs, in ``CI_METHODS`` order."""
        return {"none": (), "both": CI_METHODS}.get(self.method, (self.method,))


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    replicates: int = 200
    misspecified: frozenset = frozenset()
    seed: int = 0
    methods: tuple[str, ...] = ("MR",)
    grid_size: int = DOSE_GRID_SIZE
    super_n: int = _SUPER_N
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    workers: int = field(default_factory=pool_size)
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
        object.__setattr__(self, "methods", tuple(dict.fromkeys(self.methods)))  # one job per method


@dataclass(frozen=True)
class MethodReport:
    method: str
    misspecified: tuple[str, ...]
    integrated_abs_bias: float
    integrated_rmse: float
    integrated_sd: float
    failures: int
    flagged: bool
    # MR's integrated pointwise coverage (percent) and mean band width per
    # ci-method, over the replicates whose bands formed; a ci-method whose
    # band formed in no replicate has neither.
    coverage: dict = field(default_factory=dict)
    mean_width: dict = field(default_factory=dict)
    # Shares of the successful replicates whose leave-one-out bandwidth sat
    # at the top of its candidate grid or beyond it, and beyond it (the
    # widening fallback ran); None for methods that select no bandwidth.
    bandwidth_at_grid_edge: float | None = None
    bandwidth_extended: float | None = None
    # MR's count per ci-method of the successful replicates whose band
    # raised a DoseDidError; they are left out of its coverage and width.
    inference_failures: dict = field(default_factory=dict)


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


class _Jobs(NamedTuple):
    """Arrays over a study's jobs: one replicate's record over its J jobs
    (``_replicate_worker``), their stack with the axes (replicate,
    permutation, method) in front, or one job's (R, ...) slice of it."""

    psi: np.ndarray  # (K,) per job, NaN where the job failed
    edges: np.ndarray  # (2,): at the grid's high edge, extended; NaN where no bandwidth was selected
    bands: np.ndarray  # (C, 2, K): MR's lower and upper band ends per ci-method the study runs
    band_failed: np.ndarray  # (C,): whether MR's band of each of those ci-methods raised


def _replicate_worker(config: ScenarioConfig, perm_keys, truth: GroundTruth, rep: int) -> _Jobs:
    """One replicate: shared dataset, per-specification estimates.

    Every curve comes from one ``curves.estimate_curves`` call, with one job
    per (permutation, method) over one ``ModelBank``. The bank fits each
    model and marginal, and forms each weight part, once per spec, and the
    engine computes each side once per set of fitted objects it reads, so a
    16-permutation, six-method replicate costs 8 fits, 4 marginals, 4
    weight parts, 6 theta0s (4 MR, 2 IPW), one leave-one-out pass for the
    bandwidths of its 7 smoothed curves (4 MR, 2 IPW, 1 NAIVE) and one
    smoother window for evaluating them.

    Returns the record of the J jobs, in permutation order with the methods
    in ``config.methods`` order within each. Its bands are NaN but for MR
    jobs whose band formed.
    """
    data = generate_scenario_data(config.n, stream_seed(config.seed, rep, ROLE_DATA))
    bank = ModelBank(data, truth.grid)
    ci_methods = config.inference.ci_methods
    n_jobs, n_ci, k_grid = len(perm_keys) * len(config.methods), len(ci_methods), truth.grid.size
    psi, edges = np.full((n_jobs, k_grid), np.nan), np.full((n_jobs, 2), np.nan)
    bands, band_failed = np.full((n_jobs, n_ci, 2, k_grid), np.nan), np.zeros((n_jobs, n_ci), dtype=bool)
    jobs: dict = {}
    for p, key in enumerate(perm_keys):
        specs = simulation_specs(config, key)
        for m, method in enumerate(config.methods):
            with suppress(DoseDidError):  # the job fails: its psi row stays NaN
                models = bank.models(specs, DOSE_NEEDS[method] + CONTROL_NEEDS[method])
                jobs[p * len(config.methods) + m] = method, models
    for j, curve in estimate_curves(data, jobs, truth.grid).items():
        if isinstance(curve, DoseDidError):
            continue
        psi[j] = curve.psi
        if curve.diagnostics["bandwidth_selected"]:
            edges[j] = curve.diagnostics["bandwidth_at_grid_edge"] == "high", curve.diagnostics["bandwidth_extended"]
        for c, ci_method in enumerate(ci_methods if curve.method == "MR" else ()):
            try:
                bands[j, c] = _band(config, data, jobs[j][1], curve, rep, ci_method)
            except DoseDidError:
                band_failed[j, c] = True
    return _Jobs(psi, edges, bands, band_failed)


def _band(config, data, models, curve, rep, ci_method):
    """The (lower, upper) ends of one replicate's MR band of ``ci_method``."""
    if ci_method == "sandwich":
        return sandwich_bands(data, models, curve, mode=config.inference.mode)[:2]
    boot_seed = int(stream_seed(config.seed, rep, ROLE_BOOTSTRAP).generate_state(1)[0])
    est = EstimatorConfig(
        method="MR",
        specs=models.specs,
        grid=curve.grid,
        bandwidth=curve.bandwidth,
        on_out_of_range="clamp",
    )
    result = weighted_bootstrap(data, est, config.inference.b_replicates, boot_seed)
    return result.ci_lower, result.ci_upper


def _integrate(weights, values):
    return float(np.sum(weights * values))


def _method_report(truth: GroundTruth, key, method: str, ci_methods, job: _Jobs) -> MethodReport:
    """One method's report under one permutation, from its job's slice of
    the replicates' stack."""
    ok = ~np.isnan(job.psi[:, 0])
    if not np.any(ok):
        raise EstimationError(f"every replicate failed for {method} under {key!r}")
    weights, psi_true, psis = truth.density_weights, truth.psi_true, job.psi[ok]
    n_fail = int(job.psi.shape[0] - ok.sum())
    coverage, width, band_failures = {}, {}, {}
    for c, ci_method in enumerate(ci_methods if method == "MR" else ()):
        band_failures[ci_method] = int(job.band_failed[:, c].sum())
        formed = ok & ~job.band_failed[:, c]
        if np.any(formed):
            lo, hi = job.bands[formed, c, 0], job.bands[formed, c, 1]
            coverage[ci_method] = 100.0 * _integrate(weights, np.mean((lo <= psi_true) & (psi_true <= hi), axis=0))
            width[ci_method] = _integrate(weights, np.mean(hi - lo, axis=0))
    selected = job.edges[~np.isnan(job.edges[:, 0])]
    at_edge, extended = (float(share) for share in selected.mean(axis=0)) if selected.size else (None, None)
    return MethodReport(
        method=method,
        misspecified=key,
        integrated_abs_bias=_integrate(weights, np.abs(psis.mean(axis=0) - psi_true)),
        integrated_rmse=_integrate(weights, np.sqrt(np.mean((psis - psi_true[None, :]) ** 2, axis=0))),
        integrated_sd=_integrate(weights, psis.std(axis=0, ddof=1) if psis.shape[0] > 1 else np.zeros(psis.shape[1])),
        failures=n_fail,
        flagged=n_fail > 0.1 * job.psi.shape[0],
        coverage=coverage,
        mean_width=width,
        bandwidth_at_grid_edge=at_edge,
        bandwidth_extended=extended,
        inference_failures=band_failures,
    )


def run_permutation_study(config: ScenarioConfig, permutations, truth: GroundTruth | None = None) -> dict:
    """Run the study once per specification permutation with shared data.

    Returns a dict mapping each permutation (as a sorted name tuple) to its
    ScenarioReport. The replicates run through ``inference.fork_map`` on
    at most ``config.workers`` processes, capped by ``pool_size()``, and
    each report reads its jobs' slices of the stack of their records.
    """
    perm_keys = list(dict.fromkeys(tuple(sorted(p)) for p in permutations))
    if truth is None:
        truth = ground_truth_curve(config.seed, config.super_n, config.grid_size)
    records = fork_map(
        lambda rep: _replicate_worker(config, perm_keys, truth, rep),
        range(config.replicates),
        min(config.workers, pool_size()),
    )
    axes = (config.replicates, len(perm_keys), len(config.methods))
    stack = _Jobs(*(np.stack(part).reshape(*axes, *part[0].shape[1:]) for part in zip(*records)))
    reports = {}
    for p, key in enumerate(perm_keys):
        jobs = {method: _Jobs(*(part[:, p, m] for part in stack)) for m, method in enumerate(config.methods)}
        reports[key] = ScenarioReport(
            config=config,
            misspecified=key,
            truth=truth,
            methods={m: _method_report(truth, key, m, config.inference.ci_methods, job) for m, job in jobs.items()},
            # Copies, so that an archived curve does not keep the stack alive.
            curves={method: job.psi.copy() for method, job in jobs.items()} if config.keep_curves else None,
        )
    return reports
