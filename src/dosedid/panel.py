"""Repeated-observation-time workflows.

With M calendar-matched (pre, post) period pairs, per-pair effect curves
are estimated on a shared dose grid (the exposure is time-invariant, so the
grid is computed once), then averaged pointwise. The pairs share the
units' covariates, treatment, doses and weight, so the models that read no
outcome, pi_a, pi_d and its marginal f, are fit once, with their weight
parts, and serve every pair; mu1, m and mu0 are fit per pair
(``_pair_curves``, docs/DECISIONS.md, D16 and D19). Both inference routes
are the single-dataset ones in ``inference``, given the M pairs as input:

* bootstrap: ``bootstrap_replicates`` draws one weight per unit per
  replicate and reuses it across all pairs, which is what accounts for
  within-unit correlation over time; each chunk of replicates refits every
  pair at that pair's point bandwidth on the chunk's weight stack, sharing
  the treatment side within the chunk, and yields M + 1 estimates, the
  pairs' and their average;
* sandwich: ``stacked_sandwich_variance`` builds each pair's context once
  and takes, at every grid point, the squared norm of the mean of the
  pairs' per-unit influence columns.

Placebo analyses re-run the same machinery on pairs of pre-intervention
periods, where the true effect curve is known to be zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .curves import CONTROL_NEEDS, DOSE_NEEDS, EffectCurveEstimate, checked_grid, estimate_curve
from .data import PanelDataset, TwoPeriodDataset, pair_periods
from .errors import DataValidationError, EstimationError
from .inference import BOOTSTRAP_REPLICATES, Z_95, bootstrap_replicates, stacked_sandwich_variance
from .nuisance import ModelBank, NuisanceSpec, default_dose_grid

__all__ = [
    "RepeatedEstimate",
    "estimate_repeated",
    "placebo_curves",
    "scale_outcomes",
]


@dataclass(frozen=True)
class RepeatedEstimate:
    """Per-pair curves on a shared grid plus their pointwise average."""

    per_m: tuple[EffectCurveEstimate, ...]
    averaged: EffectCurveEstimate

    @property
    def pair_count(self) -> int:
        return len(self.per_m)


def _average_curves(per_m: list[EffectCurveEstimate]) -> EffectCurveEstimate:
    """The pointwise average of per-pair curves (of per-pair stacks, row by
    row)."""
    psi = np.mean([c.psi for c in per_m], axis=0)
    theta = np.mean([c.theta_curve for c in per_m], axis=0)
    return EffectCurveEstimate(
        method=per_m[0].method,
        grid=per_m[0].grid,
        psi=psi,
        theta_curve=theta,
        theta0=np.mean([c.theta0 for c in per_m], axis=0),
        bandwidth=None,
        diagnostics={"pair_count": len(per_m)},
    )


def _pair_curves(
    datasets: list[TwoPeriodDataset], method, specs, grid, bandwidths, on_out_of_range="error"
) -> list[EffectCurveEstimate]:
    """Each pair's curve at its bandwidth. The datasets are period pairs of
    one panel under one weight: the first pair's bank fits pi_a, pi_d and f
    and forms their weight parts, and every later pair's bank draws them
    from it (a method that reads no model, or ``specs`` that miss one it
    reads, go to ``estimate_curve`` without a set, which reports that)."""
    needs = DOSE_NEEDS.get(method, ()) + CONTROL_NEEDS.get(method, ())
    shared = needs and specs is not None and all(name in specs for name in needs)
    first = None
    curves = []
    for ds, bandwidth in zip(datasets, bandwidths):
        models = None
        if shared:
            bank = ModelBank(ds, grid, treatment_side=first)
            first = first or bank
            models = bank.models(specs, needs)
        curves.append(
            estimate_curve(
                ds, method, specs=specs, grid=grid, bandwidth=bandwidth, on_out_of_range=on_out_of_range, models=models
            )
        )
    return curves


def estimate_repeated(
    data: PanelDataset,
    pairs,
    method: str,
    specs: dict[str, NuisanceSpec] | None = None,
    grid: np.ndarray | None = None,
    bandwidth: float | None = None,
    inference: str = "none",  # none | bootstrap | sandwich
    b_replicates: int = BOOTSTRAP_REPLICATES,
    seed: int = 0,
) -> RepeatedEstimate:
    """Estimate one curve per (pre, post) pair and their average.

    The pairs share pi_a, pi_d and f; mu1 and mu0 are fit per pair. With
    ``inference="bootstrap"`` each replicate draws one weight per unit and
    reuses it across all pairs, and the averaged curve's diagnostics count
    the failed replicates in all (``bootstrap_failed``) and by error class
    (``bootstrap_failures``), the replicates in which a pair's pi_a IRLS
    stopped at its iteration limit (``bootstrap_pi_a_unconverged``), and
    those in which pi_d's residual variance was floored at some treated
    unit (``bootstrap_pi_d_var_floored``).
    With ``inference="sandwich"`` (MR only) the pairs' per-unit influence
    columns are averaged to give normal-approximation bands for the
    average.
    """
    pairs = [tuple(p) for p in pairs]
    if not pairs:
        raise EstimationError("need at least one period pair")
    grid = checked_grid(default_dose_grid(data.dose) if grid is None else grid)

    datasets = [pair_periods(data, pre, post) for pre, post in pairs]
    per_m = _pair_curves(datasets, method, specs, grid, [bandwidth] * len(datasets))
    averaged = _average_curves(per_m)

    if inference == "bootstrap":
        bandwidths = [curve.bandwidth for curve in per_m]

        def replicate(w):
            weighted = [replace(ds, weight=w) for ds in datasets]
            curves = _pair_curves(weighted, method, specs, grid, bandwidths, on_out_of_range="clamp")
            return [*curves, _average_curves(curves)]

        *per_boot, avg_boot = bootstrap_replicates(data.a, replicate, b_replicates, seed)
        per_m = [curve.with_bands(r.ci_lower, r.ci_upper) for curve, r in zip(per_m, per_boot)]
        averaged = replace(
            averaged.with_bands(avg_boot.ci_lower, avg_boot.ci_upper),
            diagnostics={
                **averaged.diagnostics,
                **{f"bootstrap_{k}": v for k, v in avg_boot.counts.items()},
            },
        )
    elif inference == "sandwich":
        if method != "MR":
            raise EstimationError("stacked sandwich inference is available for the MR method only")
        # Each pair's MR curve keeps the model set it was built on.
        variances = stacked_sandwich_variance([(ds, c.terms.models, c) for ds, c in zip(datasets, per_m)], grid)
        half = Z_95 * np.sqrt(variances)
        averaged = averaged.with_bands(averaged.psi - half, averaged.psi + half)
    elif inference != "none":
        raise EstimationError(f"unknown inference choice {inference!r}")

    return RepeatedEstimate(per_m=tuple(per_m), averaged=averaged)


def placebo_curves(
    data: PanelDataset,
    baseline: int,
    placebo_posts,
    method: str,
    specs: dict[str, NuisanceSpec] | None = None,
    intervention_period: int | None = None,
    grid: np.ndarray | None = None,
    bandwidth: float | None = None,
) -> list[EffectCurveEstimate]:
    """Effect curves for pre-intervention period pairs (known truth: zero).

    Each placebo post period is paired with the baseline period and run
    through the ordinary estimator; the pairs share pi_a, pi_d and f. When
    ``intervention_period`` is given, any index at or after it is rejected.
    """
    posts = [int(p) for p in placebo_posts]
    if int(baseline) in posts:
        raise DataValidationError("baseline period cannot also be a placebo post period")
    if intervention_period is not None:
        offenders = [p for p in (baseline, *posts) if p >= intervention_period]
        if offenders:
            raise DataValidationError(
                f"placebo periods must precede the intervention ({intervention_period}): {offenders}"
            )
    grid = checked_grid(default_dose_grid(data.dose) if grid is None else grid)
    datasets = [pair_periods(data, baseline, post) for post in posts]
    return _pair_curves(datasets, method, specs, grid, [bandwidth] * len(datasets))


def scale_outcomes(data: PanelDataset, baseline_periods) -> PanelDataset:
    """Divide every unit's outcomes by its mean outcome over the given
    periods (e.g. pre-intervention volume normalization)."""
    cols = []
    for m in baseline_periods:
        try:
            cols.append(data.period_labels.index(int(m)))
        except ValueError:
            raise DataValidationError(f"unknown baseline period {m!r}") from None
    scale = data.y[:, cols].mean(axis=1)
    zero = np.isclose(scale, 0.0)
    if np.any(zero):
        bad = data.ids[int(np.nonzero(zero)[0][0])]
        raise DataValidationError(f"unit {bad!r} has zero baseline mean; cannot scale outcomes")
    return PanelDataset(
        ids=data.ids,
        x=data.x,
        a=data.a,
        dose=data.dose,
        y=data.y / scale[:, None],
        period_labels=data.period_labels,
        covariate_names=data.covariate_names,
    )
