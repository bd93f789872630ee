"""Nuisance function estimation.

Four models feed the effect-curve estimators:

* ``pi_a(x)``      treatment propensity P(A=1 | x),
* ``pi_d(d, x)``   conditional dose density among the treated,
* ``mu1(d, x)``    expected outcome trend among treated at dose d,
* ``mu0(x)``       expected outcome trend among controls,

plus their treated-population marginals ``m(d)`` (average of mu1 over
treated covariates) and ``f(d)`` (average of pi_d over treated covariates).
mu1 is linear in its coefficients, so ``m`` is exact in closed form at any
dose. ``f`` is tabulated on ``_MARGINAL_NODES`` evenly spaced doses over the
range of the dose grid and the treated doses together, by binning the units
and convolving by FFT, and interpolates linearly in between; its tabulated
values are floored at ``DENSITY_FLOOR`` once (docs/DECISIONS.md, D4).
Every fit and marginal is weighted by the dataset's per-unit ``weight`` of
shape (..., n): every fitted model holds one coefficient row (and one KDE
table) per row of the weight's leading shape, every prediction and
marginal has that leading shape, and each row is the one its weight row
gives alone (docs/DECISIONS.md, D7 and D10).
Each fit accepts configurable specifications: a covariate map (identity or
the Kang-Schafer nonlinear transform, used to induce misspecification in
simulation studies) and a learner (linear / logistic, or a natural cubic
spline additive expansion).

The dose density is fit in three stages on treated units only: a mean model
for D given X, a squared-residual model for the conditional variance, and a
Gaussian kernel density over the standardized residuals, tabulated by
binning and one FFT convolution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import TwoPeriodDataset
from .errors import FitError, once
from .numeric import (
    LinearFit,
    LogisticFit,
    fit_logistic,
    fit_wls,
    gaussian_kde,
    interp_rows,
    linear_predictor,
    scale_mixture,
)
from .pseudo import ControlWeights, DoseWeights

__all__ = [
    "DENSITY_FLOOR",
    "RESIDUAL_VAR_FLOOR",
    "NuisanceSpec",
    "NuisanceModelSet",
    "TabulatedCurve",
    "MarginalTrend",
    "kang_schafer_map",
    "fit_pi_a",
    "fit_pi_d",
    "fit_mu1",
    "fit_mu0",
    "marginalize",
    "fit_nuisances",
    "ModelBank",
    "default_dose_grid",
    "default_specs",
]

# Conditional dose densities are floored here before entering any weight
# denominator, bounding 1/pi_d numerically; the marginal f's tabulated
# values are floored here once.
DENSITY_FLOOR = 1e-4
# Squared-residual predictions are floored before standardization.
RESIDUAL_VAR_FLOOR = 1e-6
DOSE_GRID_SIZE = 50  # points of the default dose grid, the study truth's and the config's

_MIN_GROUP = 10
_SPLINE_INTERIOR_KNOTS = 4  # at evenly spaced percentiles of each variable
_KDE_TABLE_SIZE = 4097
_KDE_TABLE_PAD = 8.0  # bandwidths beyond the sample range
# f is tabulated on this many evenly spaced doses, set by the tolerance on
# psi (docs/DECISIONS.md, D4).
_MARGINAL_NODES = 4096

VALID_WHICH = ("pi_a", "pi_d", "mu1", "mu0")
# The models that read no outcome; neither does pi_d's marginal f.
_TREATMENT_SIDE = ("pi_a", "pi_d")
VALID_MAPS = ("identity", "kang_schafer")


def kang_schafer_map(x: np.ndarray) -> np.ndarray:
    """Nonlinear 4-covariate transform used to induce model misspecification.

    Componentwise: ``w1 = exp(x1/2)``, ``w2 = x2 / (1 + exp(x1)) + 10``,
    ``w3 = (x1 * x3 / 25 + 0.6)**3``, ``w4 = (x2 + x4 + 20)**2``.
    """
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1] != 4:
        raise ValueError("kang_schafer_map expects 4 covariates")
    x1, x2, x3, x4 = (arr[..., j] for j in range(4))
    return np.stack(
        [
            np.exp(x1 / 2.0),
            x2 / (1.0 + np.exp(x1)) + 10.0,
            (x1 * x3 / 25.0 + 0.6) ** 3,
            (x2 + x4 + 20.0) ** 2,
        ],
        axis=-1,
    )


def _apply_map(x: np.ndarray, covariate_map: str) -> np.ndarray:
    if covariate_map == "identity":
        return np.asarray(x, dtype=float)
    if covariate_map == "kang_schafer":
        return kang_schafer_map(x)
    raise ValueError(f"unknown covariate map {covariate_map!r}")


@dataclass(frozen=True)
class NuisanceSpec:
    """Specification for one nuisance fit.

    ``dose_powers`` and ``dose_interactions`` shape the mu1 design under the
    linear learner: dose enters through the listed powers plus products of
    the dose with the listed (mapped) covariate indices. ``kde_bandwidth``
    overrides Silverman's rule for the pi_d residual density.
    """

    which: str
    learner: str = "linear"
    covariate_map: str = "identity"
    dose_powers: tuple[int, ...] = (1,)
    dose_interactions: tuple[int, ...] = ()
    kde_bandwidth: float | None = None

    def __post_init__(self):
        if self.which not in VALID_WHICH:
            raise ValueError(f"unknown nuisance target {self.which!r}")
        if self.covariate_map not in VALID_MAPS:
            raise ValueError(f"unknown covariate map {self.covariate_map!r}")
        allowed = ("logistic", "flexible-additive") if self.which == "pi_a" else ("linear", "flexible-additive")
        if self.learner not in allowed:
            raise ValueError(f"{self.which} learner must be one of {allowed}, got {self.learner!r}")
        object.__setattr__(self, "dose_powers", tuple(int(p) for p in self.dose_powers))
        object.__setattr__(self, "dose_interactions", tuple(int(j) for j in self.dose_interactions))


def default_specs(misspecified=(), mu1_dose_powers=(1,), mu1_dose_interactions=()) -> dict[str, NuisanceSpec]:
    """Linear/logistic specs for all four models.

    Names listed in ``misspecified`` get the Kang-Schafer covariate map; a
    misspecified mu1 additionally collapses to a dose-linear design (no
    higher powers or interactions), i.e. the wrong model is both fed
    transformed covariates and structurally naive about the dose.
    """
    wrong = set(misspecified)
    unknown = wrong.difference(VALID_WHICH)
    if unknown:
        raise ValueError(f"unknown nuisance names: {sorted(unknown)}")

    def cmap(name):
        return "kang_schafer" if name in wrong else "identity"

    return {
        "pi_a": NuisanceSpec(which="pi_a", learner="logistic", covariate_map=cmap("pi_a")),
        "pi_d": NuisanceSpec(which="pi_d", learner="linear", covariate_map=cmap("pi_d")),
        "mu1": NuisanceSpec(
            which="mu1",
            learner="linear",
            covariate_map=cmap("mu1"),
            dose_powers=(1,) if "mu1" in wrong else tuple(mu1_dose_powers),
            dose_interactions=() if "mu1" in wrong else tuple(mu1_dose_interactions),
        ),
        "mu0": NuisanceSpec(which="mu0", learner="linear", covariate_map=cmap("mu0")),
    }


# --------------------------------------------------------------------------
# design construction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _SplineBasis:
    """Natural cubic spline basis: linear column plus one column per
    interior knot; linear beyond the boundary knots."""

    knots: np.ndarray  # sorted, boundary knots included

    @classmethod
    def from_data(cls, values: np.ndarray) -> "_SplineBasis":
        qs = np.linspace(0.0, 100.0, _SPLINE_INTERIOR_KNOTS + 2)
        knots = np.unique(np.percentile(np.asarray(values, dtype=float), qs))
        return cls(knots=knots)

    def transform(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        k = self.knots
        if k.size < 3:
            return v[:, None]

        last = k[-1]
        second_last = k[-2]

        def d(knot):
            num = np.maximum(v - knot, 0.0) ** 3 - np.maximum(v - last, 0.0) ** 3
            return num / (last - knot)

        d_ref = d(second_last)
        cols = [v] + [d(knot) - d_ref for knot in k[:-2]]
        return np.column_stack(cols)


@dataclass(frozen=True)
class CovariateDesign:
    """Maps raw covariates to a design block [1, g1(x), ..., gk(x)]: the
    mapped covariates under the linear learner, their natural splines
    (``splines``) under the flexible one."""

    covariate_map: str
    splines: tuple[_SplineBasis, ...] | None = None

    @classmethod
    def from_training(cls, x: np.ndarray, spec: NuisanceSpec) -> "CovariateDesign":
        mapped = _apply_map(x, spec.covariate_map)
        if spec.learner == "flexible-additive":
            splines = tuple(_SplineBasis.from_data(mapped[:, j]) for j in range(mapped.shape[1]))
        else:
            splines = None
        return cls(covariate_map=spec.covariate_map, splines=splines)

    def mapped(self, x: np.ndarray) -> np.ndarray:
        return _apply_map(x, self.covariate_map)

    def build(self, x: np.ndarray) -> np.ndarray:
        return self.assemble(self.mapped(x))

    def assemble(self, mapped: np.ndarray) -> np.ndarray:
        """The design block of already mapped covariates; every nuisance
        design matrix is assembled here."""
        n = mapped.shape[0]
        if self.splines is None:
            return np.column_stack([np.ones(n), mapped])
        blocks = [np.ones((n, 1))]
        blocks += [basis.transform(mapped[:, j]) for j, basis in enumerate(self.splines)]
        return np.hstack(blocks)


@dataclass(frozen=True)
class _DoseBasis:
    """Dose-only design columns: monomial powers, or a natural spline when
    one is given."""

    powers: tuple[int, ...] = (1,)
    spline: _SplineBasis | None = None

    def columns(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        if self.spline is None:
            return np.column_stack([d**p for p in self.powers])
        return self.spline.transform(d)


# --------------------------------------------------------------------------
# fitted model containers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _CovariateModel:
    """A fit on one covariate design (hosts pi_a and mu0)."""

    fit: LinearFit | LogisticFit
    design: CovariateDesign

    @property
    def coefficients(self) -> np.ndarray:
        return self.fit.coefficients

    def with_coefficients(self, coef: np.ndarray):
        return replace(self, fit=replace(self.fit, coefficients=np.asarray(coef, dtype=float)))


class PropensityModel(_CovariateModel):
    """Fitted P(A=1 | x); outputs clipped into [1e-6, 1 - 1e-6]."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fit.predict_proba(self.design.build(x))


class CovariateTrendModel(_CovariateModel):
    """Fitted x -> expected trend (hosts mu0)."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fit.predict(self.design.build(x))


@dataclass(frozen=True)
class DoseTrendModel:
    """Fitted (d, x) -> expected trend among treated (hosts mu1).

    The design is [cov block | dose block | d * mapped covariate j ...]; all
    blocks are linear in the coefficients, which makes the covariate
    average ``m`` exact in closed form (``MarginalTrend``).
    """

    coefficients: np.ndarray
    cov_design: CovariateDesign
    dose_basis: _DoseBasis
    interactions: tuple[int, ...]
    ridged: bool | np.ndarray = False

    def design(self, d: np.ndarray, x: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        mapped = self.cov_design.mapped(x)
        blocks = [self.cov_design.assemble(mapped), self.dose_basis.columns(d)]
        if self.interactions:
            blocks.append(d[:, None] * mapped[:, list(self.interactions)])
        return np.hstack(blocks)

    def __call__(self, d, x: np.ndarray) -> np.ndarray:
        d = np.broadcast_to(np.asarray(d, dtype=float), (np.shape(x)[0],))
        return linear_predictor(self.design(d, x), self.coefficients)

    def _split(self):
        """Coefficients of the covariate, dose and interaction blocks."""
        c = self.coefficients
        k_dose = self.dose_basis.columns(np.zeros(1)).shape[1]
        k_cov = c.shape[-1] - k_dose - len(self.interactions)
        return c[..., :k_cov], c[..., k_cov : k_cov + k_dose], c[..., k_cov + k_dose :]

    def unit_terms(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-unit level and dose slope: ``mu1(d, x_i) = level_i +
        dose_basis(d) @ c_dose + slope_i * d``."""
        c_cov, _, c_int = self._split()
        mapped = self.cov_design.mapped(x)
        level = linear_predictor(self.cov_design.assemble(mapped), c_cov)
        if not self.interactions:
            return level, np.zeros(level.shape)
        return level, linear_predictor(mapped[:, list(self.interactions)], c_int)

    def profile(self, d, level, slope) -> np.ndarray:
        """``level + dose_basis(d) @ c_dose + slope * d`` at each dose; a
        stacked model takes one ``level`` and ``slope`` per row."""
        d = np.asarray(d, dtype=float)
        level, slope = np.asarray(level)[..., None], np.asarray(slope)[..., None]
        return level + linear_predictor(self.dose_basis.columns(d), self._split()[1]) + slope * d

    def covariate_means(self, x: np.ndarray, weights: np.ndarray):
        """Weighted means of ``unit_terms`` over the units of ``x``, a pair
        of arrays of the leading shape of the model and the weights."""
        level, slope = self.unit_terms(x)
        wsum = np.sum(weights, axis=-1)
        return np.sum(weights * level, axis=-1) / wsum, np.sum(weights * slope, axis=-1) / wsum

    def with_coefficients(self, coef: np.ndarray) -> "DoseTrendModel":
        return replace(self, coefficients=np.asarray(coef, dtype=float))


@dataclass(frozen=True)
class DoseDensityModel:
    """Fitted conditional dose density among treated, pi_d(d | x).

    Composition of a mean model, a floored squared-residual model, and a
    kernel density over standardized residuals: the returned value is
    ``kde((d - mean(x)) / s(x)) / s(x)``, floored at DENSITY_FLOOR. The kde
    is evaluated through an interpolation table of ``_KDE_TABLE_SIZE``
    evenly spaced points, tabulated by ``DensityEstimate.on_grid``. The
    mean and squared-residual models share one covariate ``design``. A
    stacked fit holds one coefficient row, table row and ``kde_bandwidth``
    per weight row.
    """

    mean_coef: np.ndarray
    resid_coef: np.ndarray
    design: CovariateDesign
    table_x: np.ndarray
    table_y: np.ndarray
    kde_bandwidth: np.ndarray
    bandwidth_spec: float | None = None

    def location_scale(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(mean(x), sdev(x))`` from one design matrix."""
        return _location_scale(self.mean_coef, self.resid_coef, self.design.build(x))

    def __call__(self, d, x: np.ndarray) -> np.ndarray:
        return self.density_and_floor_hits(d, x)[0]

    def density_and_floor_hits(self, d, x: np.ndarray):
        """pi_d(d_i | x_i) at each row of ``x``, and how many rows the
        squared-residual model gives a variance below RESIDUAL_VAR_FLOOR,
        where ``location_scale`` floors it (per fit row), from one design
        matrix."""
        d = np.broadcast_to(np.asarray(d, dtype=float), (np.shape(x)[0],))
        matrix = self.design.build(x)
        mu, s = _location_scale(self.mean_coef, self.resid_coef, matrix)
        dens = interp_rows((d - mu) / s, self.table_x, self.table_y) / s
        hits = np.count_nonzero(linear_predictor(matrix, self.resid_coef) < RESIDUAL_VAR_FLOOR, axis=-1)
        return np.maximum(dens, DENSITY_FLOOR), hits

    def marginal_density(self, dose_nodes: np.ndarray, x: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Weighted average over units of the unfloored pi_d(node | x_i), at
        evenly spaced ``dose_nodes`` (unit weights when none are given).

        The units are binned in (mean, log sdev) and each sdev node's
        histogram is convolved with the KDE table by FFT; sdev outliers are
        summed directly (``numeric.scale_mixture``).
        """
        w = np.ones(np.shape(x)[0]) if weights is None else np.asarray(weights, dtype=float)
        nodes = np.asarray(dose_nodes, dtype=float)
        return scale_mixture(
            self.table_x,
            self.table_y,
            *self.location_scale(x),
            w / np.sum(w, axis=-1, keepdims=True),
            float(nodes[0]),
            float(nodes[-1]),
            nodes.shape[0],
            self.kde_bandwidth,
        )

    def with_parameters(self, mean_coef, resid_coef, d, x, sample_weight=None) -> "DoseDensityModel":
        """Rebuild the full three-stage model at new mean/variance
        coefficients, re-deriving residuals and their kernel density from
        the supplied training data (unit weights by default)."""
        d = np.asarray(d, dtype=float)
        weight = np.ones(d.shape) if sample_weight is None else sample_weight
        matrix = self.design.build(x)
        return _assemble_dose_density(mean_coef, resid_coef, self.design, matrix, d, weight, self.bandwidth_spec)


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class _NodeCurve:
    """A treated marginal over its sorted dose nodes ``x``.

    Evaluation outside [x[0], x[-1]] clamps to the nearest endpoint;
    callers that report clamps count them with ``out_of_range``.
    """

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(self.x))

    def out_of_range(self, d) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        return (d < self.x[0]) | (d > self.x[-1])


@dataclass(frozen=True)
class TabulatedCurve(_NodeCurve):
    """Piecewise-linear density through ``(x, y)`` (hosts f, whose ``y``
    ``marginalize`` floors at DENSITY_FLOOR)."""

    y: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "y", _frozen(self.y))

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        return interp_rows(np.broadcast_to(d, self.y.shape[:-1] + d.shape), self.x, self.y)


@dataclass(frozen=True)
class MarginalTrend(_NodeCurve):
    """The marginal ``m(d) = level + dose_basis(d) @ c_dose + slope * d`` of
    a mu1 ``model``, exact at any dose in [x[0], x[-1]].

    ``level`` and ``slope`` are the treated-weighted means of the model's
    ``unit_terms`` (one per row of a stacked model); ``x`` is the node set
    its companion ``f`` is tabulated on.
    """

    model: DoseTrendModel
    level: np.ndarray
    slope: np.ndarray

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        out = self.model.profile(np.clip(d.reshape(-1), self.x[0], self.x[-1]), self.level, self.slope)
        return out.reshape(out.shape[:-1] + d.shape)


@dataclass(frozen=True)
class NuisanceModelSet:
    """The fitted nuisance functions plus their treated marginals.

    ``specs`` records each model's specification; the augmented sandwich
    reads it to require parametric learners. The set does not keep the
    dataset it was fit on: every caller passes that dataset beside it.

    ``dose_weights`` and ``control_weights`` are the weight parts of its
    pi_d and f, and of its pi_a, on the dataset each names; one read from
    other fitted objects than the set's own (after ``replace``) is dropped.

    A ``ModelBank`` gives one set to every job that reads the same models
    under the same specs, so many keys may hold one set: no code changes
    its ``specs`` dict.
    """

    pi_a: PropensityModel | None
    pi_d: DoseDensityModel | None
    mu1: DoseTrendModel | None
    mu0: CovariateTrendModel | None
    m_marginal: MarginalTrend | None
    f_marginal: TabulatedCurve | None
    specs: dict
    dose_weights: DoseWeights | None = None
    control_weights: ControlWeights | None = None

    def __post_init__(self):
        dose, control = self.dose_weights, self.control_weights
        if dose is not None and (dose.pi_d is not self.pi_d or dose.f_marginal is not self.f_marginal):
            object.__setattr__(self, "dose_weights", None)
        if control is not None and control.pi_a is not self.pi_a:
            object.__setattr__(self, "control_weights", None)

    @property
    def dose_nodes(self) -> np.ndarray | None:
        """The node set of the treated marginals, None without them."""
        marginal = self.m_marginal or self.f_marginal
        return None if marginal is None else marginal.x


# --------------------------------------------------------------------------
# fitting operations
# --------------------------------------------------------------------------


def fit_pi_a(data: TwoPeriodDataset, spec: NuisanceSpec) -> PropensityModel:
    """Logistic regression of A on mapped covariates (spline-expanded for
    the flexible learner)."""
    if spec.which != "pi_a":
        raise ValueError("spec.which must be 'pi_a'")
    design = CovariateDesign.from_training(data.x, spec)
    fit = fit_logistic(design.build(data.x), data.a.astype(float), sample_weight=data.weight)
    return PropensityModel(fit=fit, design=design)


def _location_scale(mean_coef, resid_coef, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean and the floored residual deviation on a built design."""
    variance = linear_predictor(matrix, resid_coef)
    return linear_predictor(matrix, mean_coef), np.sqrt(np.maximum(variance, RESIDUAL_VAR_FLOOR))


def _assemble_dose_density(mean_coef, resid_coef, design, matrix, d, sample_weight, bandwidth_spec) -> DoseDensityModel:
    """The three-stage model at the given coefficients; ``matrix`` is
    ``design`` built on the training covariates."""
    mu, s = _location_scale(mean_coef, resid_coef, matrix)
    std_resid = (d - mu) / s
    if not np.all(np.isfinite(std_resid)):
        raise FitError("non-finite standardized residuals in dose density fit")
    if np.any(np.std(std_resid, axis=-1) <= 0.0):
        raise FitError("degenerate exposure: standardized residuals have zero spread")
    kde = gaussian_kde(std_resid, bandwidth=bandwidth_spec, sample_weight=sample_weight)
    lo = std_resid.min(axis=-1) - _KDE_TABLE_PAD * kde.bandwidth
    hi = std_resid.max(axis=-1) + _KDE_TABLE_PAD * kde.bandwidth
    table_x = np.linspace(lo, hi, _KDE_TABLE_SIZE, axis=-1)
    table_y = kde.on_grid(lo, hi, _KDE_TABLE_SIZE)
    return DoseDensityModel(
        mean_coef=np.asarray(mean_coef, dtype=float),
        resid_coef=np.asarray(resid_coef, dtype=float),
        design=design,
        table_x=table_x,
        table_y=table_y,
        kde_bandwidth=kde.bandwidth,
        bandwidth_spec=bandwidth_spec,
    )


def fit_pi_d(data: TwoPeriodDataset, spec: NuisanceSpec) -> DoseDensityModel:
    """Three-stage conditional density fit on treated units only."""
    if spec.which != "pi_d":
        raise ValueError("spec.which must be 'pi_d'")
    if data.n_treated < _MIN_GROUP:
        raise FitError(f"need at least {_MIN_GROUP} treated units to fit the dose density")
    wt = data.weight_treated
    x_t = data.x_treated
    d = data.dose
    if float(np.ptp(d)) == 0.0:
        raise FitError("degenerate exposure: constant dose among treated units")

    design = CovariateDesign.from_training(x_t, spec)
    matrix = design.build(x_t)
    mean_fit = fit_wls(matrix, d, wt)
    resid_fit = fit_wls(matrix, (d - mean_fit.predict(matrix)) ** 2, wt)
    return _assemble_dose_density(
        mean_fit.coefficients, resid_fit.coefficients, design, matrix, d, wt, spec.kde_bandwidth
    )


def fit_mu1(data: TwoPeriodDataset, spec: NuisanceSpec) -> DoseTrendModel:
    """Trend regression on treated units: covariates, dose powers, and
    configured dose-covariate interactions (smooth additive terms under the
    flexible learner)."""
    if spec.which != "mu1":
        raise ValueError("spec.which must be 'mu1'")
    if data.n_treated < _MIN_GROUP:
        raise FitError(f"need at least {_MIN_GROUP} treated units to fit mu1")
    x_t = data.x_treated
    d = data.dose
    trend_t, _ = data.split(data.trend)

    cov_design = CovariateDesign.from_training(x_t, spec)
    if spec.learner == "flexible-additive":
        dose_basis = _DoseBasis(spline=_SplineBasis.from_data(d))
        interactions: tuple[int, ...] = ()
    else:
        dose_basis = _DoseBasis(powers=spec.dose_powers)
        interactions = spec.dose_interactions

    model = DoseTrendModel(
        coefficients=np.zeros(1),
        cov_design=cov_design,
        dose_basis=dose_basis,
        interactions=interactions,
    )
    design = model.design(d, x_t)
    fit = fit_wls(design, trend_t, data.weight_treated)
    return replace(model, coefficients=fit.coefficients, ridged=fit.ridged)


def fit_mu0(data: TwoPeriodDataset, spec: NuisanceSpec) -> CovariateTrendModel:
    """Trend regression on control units only."""
    if spec.which != "mu0":
        raise ValueError("spec.which must be 'mu0'")
    if data.n_control < _MIN_GROUP:
        raise FitError(f"need at least {_MIN_GROUP} control units to fit mu0")
    x_c = data.x_control
    _, trend_c = data.split(data.trend)
    design = CovariateDesign.from_training(x_c, spec)
    fit = fit_wls(design.build(x_c), trend_c, data.weight_control)
    return CovariateTrendModel(fit=fit, design=design)


def default_dose_grid(doses: np.ndarray, size: int = DOSE_GRID_SIZE) -> np.ndarray:
    """``size`` evenly spaced doses between the 10th and 90th dose percentiles."""
    d = np.asarray(doses, dtype=float)
    lo, hi = np.percentile(d, [10.0, 90.0])
    if not hi > lo:
        raise FitError("degenerate dose distribution: percentile range is empty")
    return np.linspace(lo, hi, size)


def _node_set(dose_grid: np.ndarray, doses: np.ndarray) -> np.ndarray:
    """The marginals' nodes: ``_MARGINAL_NODES`` evenly spaced doses over the
    range of ``dose_grid`` and ``doses`` together. A node set is its own
    node set, so rebuilds that pass it back as the grid land on it."""
    grid = np.asarray(dose_grid, dtype=float)
    lo = min(float(grid.min()), float(doses.min()))
    hi = max(float(grid.max()), float(doses.max()))
    return np.linspace(lo, hi, _MARGINAL_NODES)


def marginalize(
    mu1: DoseTrendModel | None,
    pi_d: DoseDensityModel | None,
    data: TwoPeriodDataset,
    dose_grid: np.ndarray,
) -> tuple[MarginalTrend | None, TabulatedCurve | None]:
    """Average mu1 and pi_d over the treated covariate distribution,
    weighted by the treated units' ``data.weight``.

    ``m`` is exact in closed form at any dose. ``f`` is the binned mixture
    of the unfloored pi_d on the node set (``_MARGINAL_NODES`` evenly spaced
    doses over the range of ``dose_grid`` and the treated doses), floored
    at DENSITY_FLOOR there, and evaluates by linear interpolation in
    between. Both carry the node set as ``x``; passing it back as
    ``dose_grid`` reproduces it.
    """
    if data.n_treated == 0:
        raise FitError("cannot marginalize with no treated units")
    nodes = _node_set(dose_grid, data.dose)
    wt = data.weight_treated
    x_t = data.x_treated
    m_curve = None
    f_curve = None
    if mu1 is not None:
        level, slope = mu1.covariate_means(x_t, wt)
        m_curve = MarginalTrend(x=nodes, model=mu1, level=level, slope=slope)
    if pi_d is not None:
        f = pi_d.marginal_density(nodes, x_t, wt)
        f_curve = TabulatedCurve(x=nodes, y=np.maximum(f, DENSITY_FLOOR, out=f))
    return m_curve, f_curve


class ModelBank:
    """Nuisance models of one dataset, fitted lazily and shared by spec.

    Each ``(name, spec)`` model is fit at most once, and each mu1 or pi_d
    marginal is formed at most once per spec, on the node set that
    ``marginalize`` derives from ``dose_grid``. Model sets for different
    specification permutations therefore share every fit they have in
    common. ``weights`` forms the weight part of each fitted pi_a, and of
    each fitted pi_d with its f, once, for every model set that holds them,
    and ``models`` builds each set once (docs/DECISIONS.md, D23).

    ``treatment_side``, a bank on another period pair of the same units
    (covariates, treatment, doses and weight) and the same ``dose_grid``,
    serves this bank's pi_a, pi_d, f and their weight parts: they read no
    outcome, so the pairs share them and fit only mu1, m and mu0 each
    (docs/DECISIONS.md, D16 and D19).
    """

    def __init__(
        self, data: TwoPeriodDataset, dose_grid: np.ndarray | None = None, treatment_side: "ModelBank | None" = None
    ):
        if treatment_side is not None and not _same_treatment_side(treatment_side, data, dose_grid):
            raise ValueError("a treatment-side bank must hold the same units, doses, weight and dose grid")
        self.data = data
        self.dose_grid = dose_grid
        self.treatment_side = treatment_side
        self._fits: dict = {}
        self._marginals: dict = {}
        self._weights: dict = {}
        self._sets: dict = {}

    def fit(self, name: str, spec: NuisanceSpec):
        if self.treatment_side is not None and name in _TREATMENT_SIDE:
            return self.treatment_side.fit(name, spec)
        key = (name, spec)
        if key not in self._fits:
            fitter = {"pi_a": fit_pi_a, "pi_d": fit_pi_d, "mu1": fit_mu1, "mu0": fit_mu0}[name]
            self._fits[key] = fitter(self.data, spec)
        return self._fits[key]

    def marginal(self, name: str, spec: NuisanceSpec) -> MarginalTrend | TabulatedCurve:
        """The treated marginal ``m`` (name ``"mu1"``) or ``f`` (``"pi_d"``)."""
        if self.treatment_side is not None and name in _TREATMENT_SIDE:
            return self.treatment_side.marginal(name, spec)
        key = (name, spec)
        if key not in self._marginals:
            if self.dose_grid is None:
                self.dose_grid = default_dose_grid(self.data.dose)
            model = self.fit(name, spec)
            mu1, pi_d = (model, None) if name == "mu1" else (None, model)
            m_curve, f_curve = marginalize(mu1, pi_d, self.data, self.dose_grid)
            self._marginals[key] = m_curve or f_curve
        return self._marginals[key]

    def weights(self, name: str, spec: NuisanceSpec) -> ControlWeights | DoseWeights:
        """The weight part of the fitted pi_a (name ``"pi_a"``) or of the
        fitted pi_d and its f (``"pi_d"``) on this bank's dataset."""
        if self.treatment_side is not None:
            return self.treatment_side.weights(name, spec)
        key = (name, spec)
        if key not in self._weights:
            if name == "pi_a":
                self._weights[key] = ControlWeights.form(self.data, self.fit(name, spec))
            else:
                self._weights[key] = DoseWeights.form(self.data, self.fit(name, spec), self.marginal(name, spec))
        return self._weights[key]

    def models(self, specs: dict[str, NuisanceSpec], which=VALID_WHICH) -> NuisanceModelSet:
        """The model set for ``which`` under ``specs``, with its marginals.

        The bank keeps one set per ``which`` and the specs of ``which``, and
        gives every call that asks for it the same object (or raises its
        build's DoseDidError again), so callers may hold one set under many
        keys and must not change its ``specs``."""
        which = tuple(which)
        for name in which:
            if name not in specs:
                raise ValueError(f"missing nuisance spec for {name!r}")
        return once(self._sets, (which, *(specs[name] for name in which)), self._model_set, specs, which)

    def _model_set(self, specs: dict[str, NuisanceSpec], which: tuple) -> NuisanceModelSet:
        fitted = {name: self.fit(name, specs[name]) for name in VALID_WHICH if name in which}
        m_curve = self.marginal("mu1", specs["mu1"]) if "mu1" in which else None
        f_curve = self.marginal("pi_d", specs["pi_d"]) if "pi_d" in which else None
        return NuisanceModelSet(
            pi_a=fitted.get("pi_a"),
            pi_d=fitted.get("pi_d"),
            mu1=fitted.get("mu1"),
            mu0=fitted.get("mu0"),
            m_marginal=m_curve,
            f_marginal=f_curve,
            specs={k: specs[k] for k in which},
            dose_weights=self.weights("pi_d", specs["pi_d"]) if "pi_d" in which else None,
            control_weights=self.weights("pi_a", specs["pi_a"]) if "pi_a" in which else None,
        )


def _same_treatment_side(bank: "ModelBank", data: TwoPeriodDataset, dose_grid) -> bool:
    """Whether ``bank`` was built on the units, doses, weight and dose grid
    of ``data`` and ``dose_grid``."""
    return np.array_equal(bank.dose_grid, dose_grid) and data.same_fields(bank.data, ("x", "a", "dose", "weight"))


def fit_nuisances(
    data: TwoPeriodDataset,
    specs: dict[str, NuisanceSpec],
    which=VALID_WHICH,
    dose_grid: np.ndarray | None = None,
) -> NuisanceModelSet:
    """Fit the requested nuisance models and assemble the model set with
    marginal curves for whichever of (mu1, pi_d) were fit."""
    return ModelBank(data, dose_grid).models(specs, which)
