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
"""

from __future__ import annotations

import numpy as np

from .data import TwoPeriodDataset
from .errors import DataValidationError, ExtrapolationError
from .nuisance import NuisanceModelSet

__all__ = [
    "normalize_weights",
    "compute_xi_terms",
    "dose_weight_terms",
    "compute_theta0",
    "count_clamped",
]


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


def compute_xi_terms(data: TwoPeriodDataset, models: NuisanceModelSet, on_out_of_range: str = "error"):
    """``(xi, dose_weight_terms(...))``: the treated units' pseudo-outcomes
    in unit order, with the dose weights they are formed from; the
    residual term carries the normalized weight w1. The MR curve and its
    sandwich both read xi from here."""
    if models.m_marginal is None or models.f_marginal is None or models.mu1 is None or models.pi_d is None:
        raise DataValidationError("compute_xi_terms needs fitted mu1/pi_d models and their marginals")
    weights = dose_weight_terms(data, models, on_out_of_range)
    trend_t, _ = data.split(data.trend)
    xi = models.m_marginal(data.dose) + weights[0] * (trend_t - models.mu1(data.dose, data.x_treated))
    return xi, weights


def dose_weight_terms(data: TwoPeriodDataset, models: NuisanceModelSet, on_out_of_range: str):
    """``(w1, f(D_i), pi_d(D_i | X_i), var_floor_hits, clamped)`` at the
    treated units: the normalized weight f / pi_d (pi_d is floored inside
    the model) of MR's pseudo-outcomes and IPW's target alike, the count of
    treated units whose pi_d variance is floored, from the same design
    matrix (``DoseDensityModel.density_and_floor_hits``), and
    ``count_clamped``'s count. ``on_out_of_range`` controls what happens
    when a treated dose falls outside the marginals' node range:
    ``"error"`` raises (naming the unit), ``"clamp"`` evaluates at the
    nearest endpoint."""
    if on_out_of_range not in ("error", "clamp"):
        raise ValueError("on_out_of_range must be 'error' or 'clamp'")
    d = data.dose
    clamped = count_clamped(data, models)
    if clamped and on_out_of_range == "error":
        treated_ids = [uid for uid, flag in zip(data.ids, data.a) if flag]
        bad = int(np.nonzero(models.f_marginal.out_of_range(d))[0][0])
        raise ExtrapolationError(f"dose {d[bad]} of unit {treated_ids[bad]!r} lies outside the marginals' node range")
    f_at_d = models.f_marginal(d)
    pi_d_at, var_floor_hits = models.pi_d.density_and_floor_hits(d, data.x_treated)
    return normalize_weights(f_at_d / pi_d_at, data.weight_treated), f_at_d, pi_d_at, var_floor_hits, clamped


def compute_theta0(
    data: TwoPeriodDataset,
    models: NuisanceModelSet,
    mu0_override: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray]:
    """Control-side components (theta00, theta01) and the raw ATT weights.

    ``mu0_override`` substitutes fixed per-unit mu0 predictions (length n);
    passing zeros yields the pure weighting estimator used by IPW.
    """
    if models.pi_a is None:
        raise DataValidationError("compute_theta0 needs a fitted pi_a model")
    if mu0_override is None:
        if models.mu0 is None:
            raise DataValidationError("compute_theta0 needs a fitted mu0 model")
        mu0_all = models.mu0(data.x)
    else:
        mu0_all = np.asarray(mu0_override, dtype=float)

    wt, wc = data.weight_treated, data.weight_control
    pa = models.pi_a(data.x)
    _, pa_c = data.split(pa)
    raw_w0 = pa_c / (1.0 - pa_c)
    w0 = normalize_weights(raw_w0, wc)

    trend_t, trend_c = data.split(data.trend)
    mu0_t, mu0_c = data.split(mu0_all)
    theta00 = np.sum(wc * w0 * (trend_c - mu0_c), axis=-1) / np.sum(wc, axis=-1)
    theta01 = np.sum(wt * mu0_t, axis=-1) / np.sum(wt, axis=-1)
    return theta00, theta01, raw_w0


def count_clamped(data: TwoPeriodDataset, models: NuisanceModelSet) -> int:
    """Treated doses outside the marginals' node range, which the
    ``"clamp"`` policy evaluates at the nearest endpoint."""
    return int(np.count_nonzero(models.f_marginal.out_of_range(data.dose)))
