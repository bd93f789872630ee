"""Effect-curve estimation on a common dose grid.

Six estimators of the dose-specific intervention effect on the treated,
Psi(delta), all returning an EffectCurveEstimate:

* ``MR``            influence-function pseudo-outcomes regressed on dose by
                    a local linear Epanechnikov smoother, minus the
                    control-side component (multiply robust).
* ``MR_PARAMETRIC`` same pseudo-outcomes, but a parametric polynomial dose
                    regression in place of the kernel smoother.
* ``OR``            pure outcome-regression contrast of mu1 and mu0 averaged
                    over treated covariates.
* ``IPW``           pure weighting estimator: dose-density weights on the
                    treated side, treatment-odds weights on the control side.
* ``NAIVE``         confounding-naive kernel regression of raw trends minus
                    the unadjusted control trend mean.
* ``TWFE``          pooled two-way fixed effects regression with a linear
                    dose interaction.

Every fit and mean is weighted by the dataset's per-unit ``weight``: the
weighted bootstrap reruns the whole pipeline on a copy of the dataset that
carries its resampling weights, a chunk of replicates at a time as an
(R, n) stack of weight rows. On a stacked dataset every method returns
(R, K) curves, one row per weight row and each the one that row gives
alone; the bandwidth must then be given, as leave-one-out selection takes
one weight row. A single run's per-row values become Python scalars only
in ``EffectCurveEstimate`` (docs/DECISIONS.md, D10). Every caller goes
through one engine, ``estimate_curves`` (D13).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import TwoPeriodDataset
from .errors import BandwidthError, DoseDidError, EstimationError
from .numeric import WindowedMoments, default_bandwidth_grid, fit_wls, linear_predictor
from .nuisance import DENSITY_FLOOR, VALID_WHICH, NuisanceModelSet, NuisanceSpec, default_dose_grid, fit_nuisances
from .pseudo import OutcomeTerms, compute_theta0, compute_xi_terms, control_weights_of, dose_weights_of

__all__ = [
    "METHODS",
    "SMOOTHED_METHODS",
    "DOSE_NEEDS",
    "CONTROL_NEEDS",
    "EffectCurveEstimate",
    "EstimatorConfig",
    "checked_grid",
    "estimate_curve",
    "estimate_curves",
    "dose_sides",
    "parametric_theta",
    "robust_select_bandwidth",
    "write_curve",
]

METHODS = ("MR", "MR_PARAMETRIC", "OR", "IPW", "NAIVE", "TWFE")
# The methods whose dose-side curve is a local linear smoother.
SMOOTHED_METHODS = ("MR", "IPW", "NAIVE")
# MR_PARAMETRIC's dose regression: an intercept and these powers of the dose.
PARAMETRIC_BASIS = (1, 3)

# Every method but TWFE splits as psi(delta) = theta(delta) - theta0: a
# dose-side curve over the treated and a control-side constant. Each side
# reads only the nuisance models listed for it here.
DOSE_NEEDS = {
    "MR": ("pi_d", "mu1"),
    "MR_PARAMETRIC": ("pi_d", "mu1"),
    "OR": ("mu1",),
    "IPW": ("pi_d",),
    "NAIVE": (),
    "TWFE": (),
}
CONTROL_NEEDS = {
    "MR": ("pi_a", "mu0"),
    "MR_PARAMETRIC": ("pi_a", "mu0"),
    "OR": ("mu0",),
    "IPW": ("pi_a",),
    "NAIVE": (),
    "TWFE": (),
}
_NEEDS = {
    method: tuple(name for name in VALID_WHICH if name in DOSE_NEEDS[method] + CONTROL_NEEDS[method])
    for method in METHODS
}
# The fitted objects that reading each model means: pi_d and mu1 come with
# their treated marginals f and m.
_FITTED = {"pi_a": ("pi_a",), "pi_d": ("pi_d", "f_marginal"), "mu1": ("mu1", "m_marginal"), "mu0": ("mu0",)}
# MR_PARAMETRIC forms MR's pseudo-outcomes and MR's theta0; only its dose
# regression differs.
_SHARES = {"MR_PARAMETRIC": "MR"}


@dataclass(frozen=True)
class EffectCurveEstimate:
    """Point estimates of the effect curve on a strictly increasing grid.

    ``psi = theta_curve - theta0`` elementwise for the methods with that
    decomposition (TWFE reports theta0 = 0). Confidence bands are attached
    by the inference module. An estimate on a stacked dataset holds (R, K)
    curves, (R,) ``theta0`` and per-row diagnostics; a single run's
    ``theta0`` is a Python float. An MR curve keeps in ``terms`` the
    outcome part it was built from (xi, theta00, theta01, mu0(X) and the
    smoother window of xi), which its sandwich reads (D19).
    """

    method: str
    grid: np.ndarray
    psi: np.ndarray
    theta_curve: np.ndarray
    theta0: float | np.ndarray
    bandwidth: float | None = None
    ci_lower: np.ndarray | None = None
    ci_upper: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)
    terms: OutcomeTerms | None = None

    def __post_init__(self):
        checked_grid(self.grid)
        object.__setattr__(self, "theta0", _scalar(self.theta0))
        object.__setattr__(self, "diagnostics", {name: _scalar(value) for name, value in self.diagnostics.items()})
        for name in ("grid", "psi", "theta_curve", "ci_lower", "ci_upper"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def with_bands(self, lower: np.ndarray, upper: np.ndarray) -> "EffectCurveEstimate":
        return replace(self, ci_lower=np.asarray(lower, dtype=float), ci_upper=np.asarray(upper, dtype=float))


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything needed to reproduce one curve fit on a dataset.

    The weighted bootstrap re-runs ``build`` on the dataset under stacks
    of resampled unit weights; holding ``grid`` and ``bandwidth`` fixed
    here keeps replicates comparable pointwise.
    """

    method: str
    specs: dict[str, NuisanceSpec] | None = None
    grid: np.ndarray | None = None
    bandwidth: float | None = None
    on_out_of_range: str = "error"

    def build(self, data: TwoPeriodDataset) -> EffectCurveEstimate:
        return estimate_curve(
            data,
            self.method,
            specs=self.specs,
            grid=self.grid,
            bandwidth=self.bandwidth,
            on_out_of_range=self.on_out_of_range,
        )


def checked_grid(grid) -> np.ndarray:
    """``grid`` as a float array; an EstimationError unless it is
    non-empty, one-dimensional, finite and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise EstimationError(f"evaluation grid must hold at least one point, got shape {grid.shape}")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise EstimationError("evaluation grid must be finite and strictly increasing")
    return grid


def parametric_theta(dose, ys, grid, sample_weight):
    """Least-squares regression on an intercept and the dose powers
    ``PARAMETRIC_BASIS``, evaluated on the grid (per row, for stacked ``ys``
    or weights)."""
    dose = np.asarray(dose, dtype=float)
    design = np.column_stack([dose**p for p in (0, *PARAMETRIC_BASIS)])
    fit = fit_wls(design, np.asarray(ys, dtype=float), sample_weight)
    grid = np.asarray(grid, dtype=float)
    return linear_predictor(np.column_stack([grid**p for p in (0, *PARAMETRIC_BASIS)]), fit.coefficients)


def _min_feasible_bandwidth(x: np.ndarray) -> float:
    """Smallest h for which every point of the sorted doses ``x`` has two
    strict in-window partners (the second-nearest-neighbour distance,
    maximized over points)."""
    n = x.shape[0]
    inf = np.inf
    d_m1 = np.concatenate([[inf], x[1:] - x[:-1]])
    d_p1 = np.concatenate([x[1:] - x[:-1], [inf]])
    d_m2 = np.concatenate([[inf, inf], x[2:] - x[:-2]])
    d_p2 = np.concatenate([x[2:] - x[:-2], [inf, inf]])
    second = np.where(d_m1 <= d_p1, np.minimum(d_p1, d_m2), np.minimum(d_m1, d_p2))
    req = float(np.max(second[np.isfinite(second)])) if n > 2 else float(x[-1] - x[0])
    return req * (1.0 + 1e-9)


def robust_select_bandwidth(window: WindowedMoments, grid: np.ndarray) -> float | np.ndarray:
    """Leave-one-out bandwidth selection over ``window``'s sample and the
    candidate ``grid``, with a widening fallback.

    When every candidate in the grid is infeasible — an isolated extreme
    point with no neighbour inside the widest window — the grid is extended
    upward to the smallest everywhere-feasible bandwidth, so the estimator
    degrades to a smoother fit instead of failing outright. Feasibility
    depends on the doses alone, so a window over an (R, n) stack of targets
    and one weight row shares the extension and gets one bandwidth per row
    (``WindowedMoments.select_bandwidth``).
    """
    try:
        return window.select_bandwidth(grid)
    except BandwidthError:
        top = float(np.max(grid))
        need = _min_feasible_bandwidth(window.x_sorted)
        if need <= top:
            raise
        extension = np.geomspace(top, need, 6)[1:]
        return window.select_bandwidth(np.concatenate([grid, extension]))


def _bandwidths(data, window: WindowedMoments, rows: int, bandwidth) -> list:
    """``(bandwidth, diagnostics)`` of each of the ``rows`` dose-side
    regression targets that ``window`` holds over the treated doses: the
    given ``bandwidth``, or else the rows' own from one
    ``robust_select_bandwidth`` pass over the window and the candidates
    ``default_bandwidth_grid`` gives the treated doses (D11)."""
    if bandwidth is not None:
        return [(bandwidth, {})] * rows
    if data.weight_treated.ndim > 1:
        raise EstimationError("bandwidth selection takes one weight row; give a bandwidth for stacked weights")
    bandwidth_grid = default_bandwidth_grid(data.dose)
    chosen = robust_select_bandwidth(window, bandwidth_grid)
    low, high = float(np.min(bandwidth_grid)), float(np.max(bandwidth_grid))
    picked = []
    # One bandwidth per row; a scalar serves every row.
    for h in np.broadcast_to(chosen, rows).tolist():
        edge = "high" if h >= high else "low" if h <= low else None
        # The widening fallback picks beyond the top of the grid.
        picked.append((h, {"bandwidth_selected": True, "bandwidth_extended": h > high, "bandwidth_at_grid_edge": edge}))
    return picked


def _smoothed_curves(data, formed: dict, grid, bandwidth) -> dict:
    """Each key of ``formed``, a dose-side regression target and its
    diagnostics, mapped to ``(theta, bandwidth, diagnostics, (target,
    window))`` of its local linear curve on ``grid``, or to the DoseDidError
    of forming it: one ``WindowedMoments`` over the stacked targets serves
    the leave-one-out pass and every curve, one ``fit`` per distinct
    bandwidth, each row bitwise its target's alone, and ``window`` is the
    target's row of it (D13)."""
    if not formed:
        return {}
    # A row per target, each over the weight's rows (NAIVE's trend is 1-D).
    stack = np.stack([np.broadcast_to(target, data.weight_treated.shape) for target, _ in formed.values()])
    fits: dict = {}
    out = {}
    try:
        window = WindowedMoments(data.dose, stack, data.weight_treated)
        picked = _bandwidths(data, window, len(formed), bandwidth)
    except DoseDidError as exc:
        return dict.fromkeys(formed, exc)
    for row, ((key, (target, diagnostics)), (h, selection)) in enumerate(zip(formed.items(), picked)):
        try:
            theta = _once(fits, h, window.fit, grid, h)[0][row]
            out[key] = theta, float(h), {**diagnostics, **selection}, (target, window.row(row))
        except DoseDidError as exc:
            out[key] = exc
    return out


def _weight_health(wt, models, weights, diagnostics) -> None:
    """Record the marginals' node count; the treated doses at which f, and
    pi_d(D_i | X_i), sit at DENSITY_FLOOR; the treated units whose pi_d
    residual variance is floored at RESIDUAL_VAR_FLOOR; the doses outside
    the node range; and the normalized dose weights w1's maximum and Kish
    effective sample size (sum v)^2 / sum v^2, where v is the unit weight
    ``wt`` times w1, all from the ``DoseWeights`` the dose side formed its
    target from."""
    v = wt * weights.w1
    diagnostics["clamped"] = weights.clamped
    diagnostics["marginal_nodes"] = int(models.f_marginal.x.shape[0])
    diagnostics["f_floor_hits"] = np.count_nonzero(weights.f_at_d <= DENSITY_FLOOR, axis=-1)
    diagnostics["pi_d_floor_hits"] = np.count_nonzero(weights.pi_d_at <= DENSITY_FLOOR, axis=-1)
    diagnostics["pi_d_var_floor_hits"] = weights.var_floor_hits
    diagnostics["w1_max"] = np.max(weights.w1, axis=-1)
    diagnostics["w1_ess"] = np.sum(v, axis=-1) ** 2 / np.sum(v * v, axis=-1)


def _scalar(value):
    """A per-row value as a Python scalar when it has no rows (a single
    run's); any other value as it is."""
    if isinstance(value, (np.ndarray, np.generic)) and value.shape == ():
        return value.item()
    return value


def _once(memo: dict, key, make, *args):
    """``make(*args)``, made once per ``key`` of ``memo``; a DoseDidError it
    raises is kept and raised again on every use."""
    if key not in memo:
        try:
            memo[key] = make(*args)
        except DoseDidError as exc:
            memo[key] = exc
    if isinstance(memo[key], DoseDidError):
        raise memo[key]
    return memo[key]


def _source(models, needs) -> tuple:
    """The identities of the fitted objects that a side reading the models
    ``needs`` reads: the jobs of one formula and one source share it."""
    return tuple(id(getattr(models, attr)) for name in needs for attr in _FITTED[name])


def _dose_target(data, formula, models, on_out_of_range) -> tuple[np.ndarray | None, dict]:
    """The regression target of ``formula``'s dose-side curve (None for OR
    and TWFE) and the diagnostics of forming it."""
    diagnostics: dict = {"clamped": 0, "bandwidth_selected": False}
    if "mu1" in DOSE_NEEDS[formula]:
        diagnostics["mu1_ridged"] = models.mu1.ridged
    if formula == "MR":
        xi, weights = compute_xi_terms(data, models, on_out_of_range)
        _weight_health(data.weight_treated, models, weights, diagnostics)
        return xi, diagnostics
    trend_t, _ = data.split(data.trend)
    if formula == "IPW":
        weights = dose_weights_of(data, models, on_out_of_range)
        _weight_health(data.weight_treated, models, weights, diagnostics)
        return weights.w1 * trend_t, diagnostics
    return (trend_t if formula == "NAIVE" else None), diagnostics


def _unsmoothed_curve(data, method, models, formed, grid, bandwidth):
    """``(theta, bandwidth, diagnostics, None)`` of an MR_PARAMETRIC, OR or
    TWFE job from its ``_dose_target``."""
    target, diagnostics = formed[0], dict(formed[1])
    if method == "MR_PARAMETRIC":
        theta = parametric_theta(data.dose, target, grid, data.weight_treated)
        diagnostics["parametric_basis"] = PARAMETRIC_BASIS
    elif method == "OR":
        theta = models.m_marginal(grid)
    else:  # TWFE
        theta, diagnostics["twfe_coefficients"] = _twfe_curve(data, grid)
    return theta, bandwidth, diagnostics, None


def dose_sides(data, jobs, grid, bandwidth, on_out_of_range) -> dict:
    """The dose-side curve theta on ``grid`` of every ``key: (method,
    models)`` of ``jobs``: each key maps to ``(theta, bandwidth,
    diagnostics, smoothed)``, or to the DoseDidError of forming it, where
    ``smoothed`` is a smoothed method's ``(target, window row)`` and None
    for the others.

    A job reads only the models in ``DOSE_NEEDS[method]``; for TWFE, whose
    curve does not split, theta is the whole curve. Methods that read pi_d
    record ``marginal_nodes``, ``f_floor_hits``, ``pi_d_floor_hits``,
    ``pi_d_var_floor_hits``, ``w1_max`` and ``w1_ess``; those that read mu1
    record ``mu1_ridged``. Each curve is formed once per (method,
    ``_source``), and MR and MR_PARAMETRIC on one source share their
    pseudo-outcomes.
    """
    curve_of: dict = {}
    formed: dict = {}
    done: dict = {}
    smoothed: dict = {}
    for key, (method, models) in jobs.items():
        formula, source = _SHARES.get(method, method), _source(models, DOSE_NEEDS[method])
        curve_of[key] = curve = method, source
        try:
            target = _once(formed, (formula, source), _dose_target, data, formula, models, on_out_of_range)
            if method in SMOOTHED_METHODS:
                smoothed[curve] = target
            else:
                _once(done, curve, _unsmoothed_curve, data, method, models, target, grid, bandwidth)
        except DoseDidError as exc:
            done[curve] = exc
    done.update(_smoothed_curves(data, smoothed, grid, bandwidth))
    return {key: done[curve] for key, curve in curve_of.items()}


def _control_side(data, formula, models) -> tuple[float | np.ndarray, dict, tuple | None]:
    """``formula``'s control-side constant theta0, its diagnostics, and for
    MR the terms it is formed from, ``(theta00, theta01, mu0(X))``.

    Reads only the models in ``CONTROL_NEEDS[formula]``; TWFE reports 0.
    theta0 and ``pi_a_converged`` have the weight's leading shape.
    """
    parts = None
    if formula == "MR":
        parts = compute_theta0(data, models)
        theta0 = parts[0] + parts[1]
    elif formula == "OR":
        wt = data.weight_treated
        theta0 = np.sum(wt * models.mu0(data.x_treated), axis=-1) / np.sum(wt, axis=-1)
    elif formula in ("IPW", "NAIVE"):
        # IPW's is theta00 at mu0 = 0, NAIVE's the controls' mean trend.
        _, trend_c = data.split(data.trend)
        wc = data.weight_control
        weighted = wc * control_weights_of(data, models).w0 if formula == "IPW" else wc
        theta0 = np.sum(weighted * trend_c, axis=-1) / np.sum(wc, axis=-1)
    else:  # TWFE
        theta0 = np.zeros(data.weight.shape[:-1])
    diagnostics = {"pi_a_converged": models.pi_a.fit.converged} if "pi_a" in CONTROL_NEEDS[formula] else {}
    return theta0, diagnostics, parts


def estimate_curves(
    data: TwoPeriodDataset,
    jobs: dict,
    grid: np.ndarray,
    bandwidth: float | None = None,
    on_out_of_range: str = "error",
) -> dict:
    """Estimate every ``key: (method, models)`` of ``jobs`` on ``data``:
    each key maps to its EffectCurveEstimate, or to the DoseDidError that
    ``estimate_curve`` raises for it alone.

    ``models`` covers the method's needs, marginalized on nodes compatible
    with ``grid`` (NAIVE and TWFE read none). psi = theta - theta0 joins
    the job's dose side (``dose_sides``) and control side; a control side
    is computed once per formula (MR_PARAMETRIC's is MR's) and ``_source``
    (docs/DECISIONS.md, D13). An MR curve keeps its two sides' outcome
    terms (D19).
    """
    doses = dose_sides(data, jobs, grid, bandwidth, on_out_of_range)
    controls: dict = {}
    out: dict = {}
    for key, (method, models) in jobs.items():
        source = _SHARES.get(method, method), _source(models, CONTROL_NEEDS[method])
        try:
            if isinstance(doses[key], DoseDidError):
                raise doses[key]
            theta, h, dose_diagnostics, smoothed = doses[key]
            theta0, control_diagnostics, parts = _once(controls, source, _control_side, data, source[0], models)
            terms = None
            if method == "MR":
                xi, window = smoothed
                terms = OutcomeTerms(data, models, xi, *parts, window=window)
            out[key] = EffectCurveEstimate(
                method=method,
                grid=grid,
                psi=theta - np.asarray(theta0)[..., None],
                theta_curve=theta,
                theta0=theta0,
                bandwidth=h,
                diagnostics={**dose_diagnostics, **control_diagnostics},
                terms=terms,
            )
        except DoseDidError as exc:
            out[key] = exc
    return out


def estimate_curve(
    data: TwoPeriodDataset,
    method: str,
    specs: dict[str, NuisanceSpec] | None = None,
    grid: np.ndarray | None = None,
    bandwidth: float | None = None,
    on_out_of_range: str = "error",
    models: NuisanceModelSet | None = None,
) -> EffectCurveEstimate:
    """Estimate the effect curve by the requested method.

    Parameters
    ----------
    data : TwoPeriodDataset; every fit and mean is weighted by its ``weight``,
        and an (R, n) stack of weight rows gives (R, K) curves.
    method : one of METHODS.
    specs : nuisance specifications, required for MR/MR_PARAMETRIC/OR/IPW.
    grid : evaluation grid, non-empty, finite and strictly increasing
        (``checked_grid``; checked before any fit); defaults to 50 points
        between the 10th and 90th treated-dose percentiles. Estimates are
        never produced outside the interior of the observed dose support.
    bandwidth : kernel bandwidth shared across the grid; selected by
        leave-one-out cross-validation on the method's own regression target
        when absent (required for MR, IPW and NAIVE on stacked weights).
    models : pre-fitted nuisance set (must cover the method's needs and be
        marginalized on a grid compatible with ``grid``); fit internally
        when absent.

    This is ``estimate_curves`` with one job.
    """
    if method not in METHODS:
        raise EstimationError(f"unknown method {method!r}; expected one of {METHODS}")
    needed = _NEEDS[method]
    if needed and models is None:
        if specs is None:
            raise EstimationError(f"method {method} requires nuisance specs {needed}")
        missing = [k for k in needed if k not in specs]
        if missing:
            raise EstimationError(f"method {method} is missing nuisance specs: {', '.join(missing)}")
    grid = checked_grid(default_dose_grid(data.dose) if grid is None else grid)
    if needed and models is None:
        models = fit_nuisances(data, specs, needed, dose_grid=grid)
    jobs = {method: (method, models)}
    curve = estimate_curves(data, jobs, grid, bandwidth, on_out_of_range)[method]
    if isinstance(curve, DoseDidError):
        raise curve
    return curve


def _twfe_curve(data: TwoPeriodDataset, grid: np.ndarray):
    """Two-way fixed effects on the two periods stacked; the curve is the
    post-treatment interaction intercept plus its dose slope."""
    n = data.n
    a = data.a.astype(float)
    d_full = np.zeros(n)
    d_full[data.a] = data.dose
    ad = a * d_full

    def rows(t, y):
        return np.column_stack(
            [np.ones(n), data.x, np.full(n, float(t)), a, ad, float(t) * a, float(t) * ad]
        ), y

    x0, y0 = rows(0, data.y0)
    x1, y1 = rows(1, data.y1)
    design = np.vstack([x0, x1])
    response = np.concatenate([y0, y1])
    fit = fit_wls(design, response, np.concatenate([data.weight, data.weight], axis=-1))
    p = data.x.shape[1]
    tau0 = fit.coefficients[..., p + 4, None]
    tau_d = fit.coefficients[..., p + 5, None]
    return tau0 + tau_d * grid, fit.coefficients


def write_curve(estimate: EffectCurveEstimate, path) -> None:
    """Write one curve as comma-delimited text with the documented columns."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta", "psi", "theta", "ci_lower", "ci_upper", "method", "bandwidth"])
        bw = "" if estimate.bandwidth is None else repr(float(estimate.bandwidth))
        for k in range(estimate.grid.shape[0]):
            lo = "" if estimate.ci_lower is None else repr(float(estimate.ci_lower[k]))
            hi = "" if estimate.ci_upper is None else repr(float(estimate.ci_upper[k]))
            writer.writerow(
                [
                    repr(float(estimate.grid[k])),
                    repr(float(estimate.psi[k])),
                    repr(float(estimate.theta_curve[k])),
                    lo,
                    hi,
                    estimate.method,
                    bw,
                ]
            )
