"""Influence-function ingredients.

Dose-side pseudo-outcomes for treated units,

    xi_i = m(D_i) + w1_i * [(Y_i1 - Y_i0) - mu1(D_i, X_i)],

with the generalized propensity weight w1_i = f(D_i) / pi_d(D_i | X_i)
normalized to mean one over the treated group before use; and the
control-side component

    theta0 = theta00 + theta01,
    theta00 = (1/n_0) sum_{controls} w0_i * [(Y_i1 - Y_i0) - mu0(X_i)],
    theta01 = (1/n_A) sum_{treated} mu0(X_i),

where w0_i = pi_a(X_i) / (1 - pi_a(X_i)) is normalized to mean one over the
controls. Dividing the control sum by the control count n_0 together with
the mean-one weights is the self-normalized (Hajek ratio) estimator
sum w0 * resid / sum w0, which is what keeps theta00 consistent for the
treated-population residual mean whichever of (pi_a, mu0) is correct. All
sums and means are weighted by the dataset's per-unit ``weight`` (all ones
unless the bootstrap sets it), of shape (..., n): every quantity has the
weight's leading shape, so a 1-D weight gives numpy scalars and an (R, n)
stack of weight rows (R,) arrays.

Each side splits into a weight part, which reads only the treatment side
and the unit weight (``DoseWeights``: f(D), pi_d(D | X), w1;
``ControlWeights``: pi_a(X), w0), and an outcome part (xi, theta00,
theta01, mu0(X)), which an MR curve keeps as its ``OutcomeTerms``
(docs/DECISIONS.md, D19).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TwoPeriodDataset
from .errors import DataValidationError, ExtrapolationError
from .numeric import WindowedMoments

__all__ = [
    "normalize_weights",
    "DoseWeights",
    "ControlWeights",
    "OutcomeTerms",
    "dose_weights_of",
    "control_weights_of",
    "compute_xi_terms",
    "compute_theta0",
    "outcome_terms",
]

# The dataset fields a weight part reads: covariates, treatment, doses and
# the unit weight; an outcome part reads the outcomes too.
_WEIGHT_FIELDS = ("x", "a", "dose", "weight")
_OUTCOME_FIELDS = _WEIGHT_FIELDS + ("y0", "y1")
# The fitted objects of a model set that MR's outcome part reads.
_OUTCOME_MODELS = ("pi_a", "pi_d", "f_marginal", "mu1", "m_marginal", "mu0")


def normalize_weights(weights: np.ndarray, sample_weight: np.ndarray | None = None) -> np.ndarray:
    """Rescale positive weights to (weighted) mean one, preserving ratios;
    each row of a (..., n) stack to its own mean. Without sample weights
    every unit weighs one."""
    w = np.asarray(weights, dtype=float)
    sw = np.ones(w.shape[-1:]) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    if w.size == 0:
        raise DataValidationError("cannot normalize an empty weight vector")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise DataValidationError("weights must be finite and strictly positive")
    mean = np.sum(sw * w, axis=-1, keepdims=True) / np.sum(sw, axis=-1, keepdims=True)
    return w / mean


@dataclass(frozen=True, eq=False)
class DoseWeights:
    """The dose side's weight part at the treated units of ``data``, from
    ``pi_d`` and its marginal ``f_marginal``: f(D_i) (at the nearest
    endpoint for a dose outside the node range), pi_d(D_i | X_i), w1 = f /
    pi_d normalized, the count of units whose pi_d residual variance is
    floored, and the count of doses outside the node range."""

    data: TwoPeriodDataset
    pi_d: object
    f_marginal: object
    w1: np.ndarray
    f_at_d: np.ndarray
    pi_d_at: np.ndarray
    var_floor_hits: np.ndarray
    clamped: int

    @classmethod
    def form(cls, data: TwoPeriodDataset, pi_d, f_marginal) -> "DoseWeights":
        d = data.dose
        clamped = int(np.count_nonzero(f_marginal.out_of_range(d)))
        f_at_d = f_marginal(d)
        pi_d_at, var_floor_hits = pi_d.density_and_floor_hits(d, data.x_treated)
        w1 = normalize_weights(f_at_d / pi_d_at, data.weight_treated)
        return cls(data, pi_d, f_marginal, w1, f_at_d, pi_d_at, var_floor_hits, clamped)


@dataclass(frozen=True, eq=False)
class ControlWeights:
    """The control side's weight part on ``data``, from ``pi_a``: w0, the
    ATT weights pi_a / (1 - pi_a) on the controls, normalized."""

    data: TwoPeriodDataset
    pi_a: object
    w0: np.ndarray

    @classmethod
    def form(cls, data: TwoPeriodDataset, pi_a) -> "ControlWeights":
        _, pa_c = data.split(pi_a(data.x))
        return cls(data, pi_a, normalize_weights(pa_c / (1.0 - pa_c), data.weight_control))


def dose_weights_of(data: TwoPeriodDataset, models, on_out_of_range: str) -> DoseWeights:
    """The set's ``DoseWeights`` if it read the units of ``data`` (its
    covariates, treatment, doses and weight), else one formed for them.
    Under ``on_out_of_range="error"`` a treated dose outside the node range
    raises, naming the unit; ``"clamp"`` keeps the endpoint's value."""
    if on_out_of_range not in ("error", "clamp"):
        raise ValueError("on_out_of_range must be 'error' or 'clamp'")
    weights = models.dose_weights
    if weights is None or not data.same_fields(weights.data, _WEIGHT_FIELDS):
        weights = DoseWeights.form(data, models.pi_d, models.f_marginal)
    if weights.clamped and on_out_of_range == "error":
        treated_ids = [uid for uid, flag in zip(data.ids, data.a) if flag]
        bad = int(np.nonzero(models.f_marginal.out_of_range(data.dose))[0][0])
        raise ExtrapolationError(
            f"dose {data.dose[bad]} of unit {treated_ids[bad]!r} lies outside the marginals' node range"
        )
    return weights


def control_weights_of(data: TwoPeriodDataset, models) -> ControlWeights:
    """The set's ``ControlWeights`` if it read the units of ``data``, else
    one formed for them."""
    if models.pi_a is None:
        raise DataValidationError("compute_theta0 needs a fitted pi_a model")
    weights = models.control_weights
    if weights is None or not data.same_fields(weights.data, _WEIGHT_FIELDS):
        weights = ControlWeights.form(data, models.pi_a)
    return weights


def compute_xi_terms(data: TwoPeriodDataset, models, on_out_of_range: str = "error"):
    """``(xi, dose_weights_of(...))``: the treated units' pseudo-outcomes
    in unit order, with the dose weights they are formed from; the
    residual term carries the normalized weight w1."""
    if models.m_marginal is None or models.f_marginal is None or models.mu1 is None or models.pi_d is None:
        raise DataValidationError("compute_xi_terms needs fitted mu1/pi_d models and their marginals")
    weights = dose_weights_of(data, models, on_out_of_range)
    trend_t, _ = data.split(data.trend)
    xi = models.m_marginal(data.dose) + weights.w1 * (trend_t - models.mu1(data.dose, data.x_treated))
    return xi, weights


def compute_theta0(data: TwoPeriodDataset, models) -> tuple[float, float, np.ndarray]:
    """Control-side components (theta00, theta01) and the per-unit mu0(X)
    they read, with w0 from ``control_weights_of``."""
    w0 = control_weights_of(data, models).w0
    if models.mu0 is None:
        raise DataValidationError("compute_theta0 needs a fitted mu0 model")
    mu0_all = models.mu0(data.x)
    wt, wc = data.weight_treated, data.weight_control
    trend_t, trend_c = data.split(data.trend)
    mu0_t, mu0_c = data.split(mu0_all)
    theta00 = np.sum(wc * w0 * (trend_c - mu0_c), axis=-1) / np.sum(wc, axis=-1)
    theta01 = np.sum(wt * mu0_t, axis=-1) / np.sum(wt, axis=-1)
    return theta00, theta01, mu0_all


@dataclass(frozen=True, eq=False)
class OutcomeTerms:
    """MR's outcome part on ``data`` from the fitted objects of ``models``:
    xi, theta00, theta01 and mu0(X), and, on a curve, ``window``, the row
    of its smoother window that smoothed xi."""

    data: TwoPeriodDataset
    models: object
    xi: np.ndarray
    theta00: float | np.ndarray
    theta01: float | np.ndarray
    mu0_x: np.ndarray
    window: WindowedMoments | None = None

    def reads(self, data: TwoPeriodDataset, models) -> bool:
        """Whether these terms were formed from the fitted objects of
        ``models`` on data equal to ``data``."""
        mine = ((getattr(self.models, name), getattr(models, name)) for name in _OUTCOME_MODELS)
        return all(a is b for a, b in mine) and data.same_fields(self.data, _OUTCOME_FIELDS)


def outcome_terms(data: TwoPeriodDataset, models) -> OutcomeTerms:
    """MR's outcome part of ``models`` on ``data``, xi at the endpoint for a
    dose outside the node range."""
    xi, _ = compute_xi_terms(data, models, "clamp")
    return OutcomeTerms(data, models, xi, *compute_theta0(data, models))
