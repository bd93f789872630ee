"""Pointwise uncertainty for the multiply robust effect curve.

Two routes, each with one implementation; the repeated-period workflow in
``panel`` feeds its M period pairs to the same code.

* **Sandwich variance** from stacked estimating equations. The base system
  has four equations per unit: the two local-linear kernel normal equations
  for (theta(delta), beta), and the two mean-type equations for
  theta00/theta01. Each kernel equation carries a quadrature correction: the
  integral, over the marginals' node range, of the kernel times f times the
  covariate-level deviation mu1(d, X_i) - m(d). mu1 is linear in its
  coefficients, so the deviation is alpha_i + phi_i * d; f is piecewise
  linear, so the integrand is a polynomial between the nodes and the
  kernel's ends, and 3-point Gauss-Legendre integrates it exactly. The
  corrections of all units share four moments of f, so a grid point costs
  one quadrature over the nodes in the kernel window. Augmented mode
  appends the nuisance-model score equations and differentiates through
  the whole pipeline by central differences. Both modes solve every grid
  point over one per-curve context, and augmented mode reduces its 2p
  perturbed nuisance sets once per curve, as two stacks: pi_d's own
  coordinates refit pi_d and f in one stacked call, the others reuse them.

  At each delta a system reduces to one per-unit influence column
  ``iota = Gamma solve(bread^T, contrast)``, and the variance is the squared
  norm ``iota . iota``: nonnegative by construction, so it is never floored.
  Gamma is a dense part ``E Z``, with E fixed per curve (n x q: six columns
  of the base equations, then the nuisance scores) and Z small (q x P,
  from delta, eta and the moments of f), plus a kernel part on the treated
  units inside the kernel window. The systems of all K grid points are
  formed in one pass over arrays (``_GridSystems``): one window-moments
  call gives eta, the breads and the kernel spans, the quadrature rules
  are a (K, 4, pieces) array, the breads are conditioned as a (K, P, P)
  stack, and the finite-difference bread columns come from the perturbed
  sets' fixed column sums and window sums. What is left per grid point is
  the bread's solve and O(n) work: iota is one (n x q) matrix-vector
  product plus a pass over the window. Every variance is bitwise the one
  of the system built at that delta alone (docs/DECISIONS.md, D18).
  The context reads xi, theta00, theta01, mu0(X) and the smoother window
  from the curve and w0 from the model set (D19).
  The variance of an average over M periods that share the unit roster is
  the squared norm of the mean of the periods' columns, which is the
  block-diagonal stacked system in closed form and picks up the
  cross-period covariance within each unit.

* **Weighted bootstrap**: per replicate one exponential(1) weight per unit,
  rescaled so each intervention group's weights sum to its observed size,
  set as the dataset's ``weight`` and so read by the entire estimation
  pipeline; percentile intervals from the replicate curves.
  ``bootstrap_replicates`` is the one replicate loop: it splits the
  replicates into equal chunks, and each chunk draws its weights and hands
  them to the estimator as an (R, n) weight stack, so one pass of the
  pipeline fits R replicates. The chunks run on forked worker processes,
  one per usable CPU (``pool_size``), and merge in replicate order; every
  stacked row is bitwise the same whichever chunk holds it, so the result
  does not depend on the pool size. The loop counts failed replicates by
  error class and takes the percentiles of each estimate's psi rows.
  ``weighted_bootstrap`` runs it with one estimate, the repeated-period
  workflow with one per period pair plus their average. ``fork_map`` is
  the package's one process pool; the study maps its replicates through
  it too.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .curves import SMOOTHED_METHODS, EffectCurveEstimate, EstimatorConfig
from .data import TwoPeriodDataset
from .errors import DoseDidError, EstimationError
from .numeric import WindowedMoments, epanechnikov, expit, linear_predictor
from .nuisance import NuisanceModelSet, marginalize
from .pseudo import ControlWeights, DoseWeights, control_weights_of, dose_weights_of, outcome_terms

__all__ = [
    "Z_95",
    "SandwichBands",
    "BootstrapResult",
    "sandwich_bands",
    "stacked_sandwich_variance",
    "bootstrap_weights",
    "bootstrap_replicates",
    "pool_size",
    "fork_map",
    "weighted_bootstrap",
]

Z_95 = 1.959963984540054  # two-sided 95% normal quantile
BOOTSTRAP_REPLICATES = 200  # the default B of InferenceConfig and estimate_repeated
_FD_STEP = 1e-5
# 3-point Gauss-Legendre on [-1, 1]: exact for polynomials of degree <= 5.
_GL_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GL_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0
_PSI_CONTRAST = np.array([1.0, 0.0, -1.0, -1.0])  # psi = theta - theta00 - theta01
# The bootstrap fits its replicates in chunks of rows whose (rows x units)
# weight stack holds at most this many elements.
_STACK_BLOCK = 16_384


class _CurveContext:
    """Per-curve quantities reused across grid deltas by the sandwich.

    The base system's four per-unit equations split into two parts. The
    dense part ``dense @ _coefficients(moments of f, eta)`` has six fixed
    columns (``_fixed_columns``). The kernel part lives on the treated units
    inside the kernel window, a slice of the window's dose-sorted order. A
    grid costs one array of quadrature rules over the nodes in the windows
    and O(window) arithmetic per point; the fixed columns and their sums
    are formed once. xi, theta00, theta01, mu0(X) and the smoother window
    of xi are the curve's own ``terms`` when they were formed from these
    models on data equal to this; otherwise ``pseudo.outcome_terms`` forms
    the terms and the context builds the window (D19).
    """

    def __init__(self, data: TwoPeriodDataset, models: NuisanceModelSet, curve: EffectCurveEstimate):
        if curve.method != "MR":
            raise EstimationError("sandwich variance is defined for the MR curve")
        if curve.bandwidth is None:
            raise EstimationError("curve carries no bandwidth")
        self.data = data
        self.curve = curve
        self.h = float(curve.bandwidth)
        self.wt, self.wc = data.weight_treated, data.weight_control
        self.p_hat = float(np.sum(self.wt) / np.sum(data.weight))

        terms = curve.terms
        if terms is None or not terms.reads(data, models):
            terms = outcome_terms(data, models)
        self.xi, self.theta00, self.theta01 = terms.xi, terms.theta00, terms.theta01
        self.nodes = models.dose_nodes
        self.f_values = models.f_marginal.y
        self.alpha, self.phi, columns = _fixed_columns(data, models, terms, self.p_hat)
        # (n, 6) column-major: a product with a coefficient vector streams
        # each column once.
        self.dense = np.swapaxes(columns, -1, -2)
        self.dense_sums = columns.sum(axis=-1)

        # ``solve``'s span indexes the window's dose-sorted order.
        self.window = window = terms.window or WindowedMoments(data.dose, self.xi, self.wt)
        self.units_sorted = np.flatnonzero(data.a)[window.order]
        self.dose_sorted, self.xi_sorted, self.wt_sorted = window.x_sorted, window.y_sorted, window.w_sorted

    def rules(self, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(first, counts, weights)``: at grid point k, the (4, counts[k])
        matrix ``weights[k, :, :counts[k]]`` whose rows, applied to the values
        of any piecewise-linear f on the nodes ``first[k]`` to ``first[k] +
        counts[k] - 1``, give the integrals over the node range of K(u) f(d)
        times 1, d, u and u d, with u = (d - delta) / h; ``weights`` is zero
        beyond ``counts``.

        The breakpoints are the nodes and the window ends delta +- h, and
        between them the integrand is a polynomial of degree <= 5, so
        3-point Gauss-Legendre is exact on each piece. Piece j of a grid
        point lies between nodes first + j and first + j + 1; every grid
        point is padded to the most pieces any has, the padding of zero
        width. The weights depend only on the nodes, h and delta; contexts
        sharing the nodes share them.
        """
        nodes, h = self.nodes, self.h
        delta = np.asarray(grid, dtype=float)[:, None]
        lo = np.maximum(delta - h, nodes[0])
        hi = np.minimum(delta + h, nodes[-1])
        inside = hi > lo
        first = np.where(inside, np.minimum(np.searchsorted(nodes, lo, side="right") - 1, nodes.shape[0] - 2), 0)
        pieces = np.where(inside, np.searchsorted(nodes, hi, side="left") - first, 0)
        j = np.arange(max(int(pieces.max(initial=0)), 1))
        real = j < pieces
        left_node = np.minimum(first + j, nodes.shape[0] - 2)
        left, right = nodes[left_node], nodes[left_node + 1]
        # (K, pieces); padded pieces have zero width and weigh nothing.
        start = np.where(real, np.maximum(left, lo), left)
        stop = np.where(real, np.minimum(right, hi), left)
        half = 0.5 * (stop - start)
        mid = 0.5 * (stop + start)
        weights = np.zeros((delta.shape[0], 4, j.shape[0] + 1))
        upper = np.empty((4,) + half.shape)
        # One Gauss-Legendre point of every piece at a time; each node's
        # weight sums the points in order, then adds the piece below's.
        for g, (node, weight) in enumerate(zip(_GL_NODES, _GL_WEIGHTS)):
            d = mid + node * half
            u = (d - delta) / h
            kw = 0.75 * (1.0 - u * u) * (weight * half)
            t = (d - left) / (right - left)
            ku = kw * u
            for row, moment in enumerate((kw, kw * d, ku, ku * d)):
                up = moment * t
                if g:
                    weights[:, row, :-1] += moment - up
                    upper[row] += up
                else:
                    weights[:, row, :-1] = moment - up
                    upper[row] = up
        weights[:, :, 1:] += np.moveaxis(upper, 0, 1)
        return first[:, 0], pieces[:, 0] + 1, weights

    def kernel_terms(self, delta: float, eta: np.ndarray, span: tuple[int, int], xi_sorted: np.ndarray):
        """``(u, lead)`` at the dose-sorted treated units ``first`` to ``stop
        - 1`` of ``span``: the column u = (D - delta) / h and lead = wt K(u)
        (xi - theta - u beta) / p, one column per column of the (n_t, R)
        ``xi_sorted``."""
        first, stop = span
        u = ((self.dose_sorted[first:stop] - delta) / self.h)[:, None]
        resid = xi_sorted[first:stop] - eta[0] - u * eta[1]
        return u, self.wt_sorted[first:stop, None] * (epanechnikov(u) * resid) / self.p_hat

    def solve(self, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """At every grid point, from one ``WindowedMoments.moments`` call: eta
        (K, 4), the analytic Jacobian of the summed base equations in eta
        (K, 4, 4), and the kernel windows' spans ``(first, stop)``: at grid
        point k the dose-sorted treated units ``first[k]`` to ``stop[k] - 1``
        have positive kernel weight."""
        moments = self.window.moments(grid, self.h)
        theta, beta = self.window.solve(grid, self.h, moments)
        s0, s1, s2, _, _, first, stop = moments
        bread = np.zeros((theta.shape[0], 4, 4))
        bread[:, 0, 0], bread[:, 1, 1] = -(s0 / self.p_hat), -(s2 / self.p_hat)
        bread[:, 0, 1] = bread[:, 1, 0] = -(s1 / self.p_hat)
        bread[:, 2, 2], bread[:, 3, 3] = -float(np.sum(self.wc)), -float(np.sum(self.wt))
        eta = np.column_stack([theta, beta, np.full_like(theta, self.theta00), np.full_like(theta, self.theta01)])
        return eta, bread, (first, stop)


def _fixed_columns(data, models, terms, p_hat: float):
    """``(alpha, phi, columns)`` of ``models`` with outcome ``terms`` on
    ``data``: mu1 is linear in its coefficients, so the covariate-level
    deviation mu1(d, X_i) - m(d) is ``alpha_i + phi_i * d``; the (..., 6, n)
    fixed columns are wt alpha / p and wt phi / p on the treated (the
    quadrature corrections are their combinations with f's quadrature
    weights), the theta00 equation's data term and weight on the controls,
    and the theta01 equation's on the treated. A model set with (R, k)
    coefficient stacks gives one row per stacked set, each bitwise the
    set's alone. theta00/theta01 are self-normalized group means, so their
    equations live on their own group only."""
    wt, wc = data.weight_treated, data.weight_control
    level, slope = models.mu1.unit_terms(data.x_treated)
    alpha = level - np.asarray(models.m_marginal.level)[..., None]
    phi = slope - np.asarray(models.m_marginal.slope)[..., None]
    treated = data.a
    mu0 = terms.mu0_x
    trend_c = data.trend[~treated]
    columns = np.zeros(terms.xi.shape[:-1] + (6, data.n))
    columns[..., 0, treated] = wt * alpha / p_hat
    columns[..., 1, treated] = wt * phi / p_hat
    columns[..., 2, ~treated] = wc * control_weights_of(data, models).w0 * (trend_c - mu0[..., ~treated])
    columns[..., 3, treated] = wt * mu0[..., treated]
    columns[..., 4, ~treated] = wc
    columns[..., 5, treated] = wt
    return alpha, phi, columns


def _moments_of_f(rules, f_values: np.ndarray) -> np.ndarray:
    """``(a0, a1, b0, b1)``, the integrals of K(u) f(d) times 1, d, u and u
    d under each grid point's quadrature rule (``_CurveContext.rules``), for
    f tabulated as the (..., nodes) ``f_values``: (K, ..., 4)."""
    first, counts, weights = rules
    out = np.empty((first.shape[0],) + f_values.shape[:-1] + (4,))
    for k, (lo, m) in enumerate(zip(first.tolist(), counts.tolist())):
        out[k] = np.matmul(weights[k, :, :m], f_values[..., lo : lo + m, None])[..., 0]
    return out


class _NuisanceBlock:
    """The nuisance-model equations a curve's systems append.

    In base mode there are none. In augmented mode they are the four
    parametric fits' score equations, and their bread columns are central
    differences of the summed equations between the 2p perturbed parameter
    vectors ``packed +- step_j e_j``. Neither the scores nor the perturbed
    sets depend on delta, so the block reduces every perturbed set once, as
    rows of two stacks: the rows that move one of pi_d's coordinates refit
    pi_d, its KDE table and f in one rank-generic call, and the others
    reuse the fitted pi_d and f. Each stack is built in blocks of at most
    ``_STACK_BLOCK // n`` rows, whose outcome terms and fixed columns are
    formed as stacks, and only what a grid point reads is kept, one row per
    perturbed set: the
    sums of the six fixed columns (2p, 6), the dose-sorted xi as columns
    (n_t, 2p), an index into the f tables (row 0 the curve's own f), and
    the summed scores (2p, p). Every stack tabulates f on the curve's
    node set, so one quadrature rule per grid point serves them all, and
    ``fd_columns`` forms every finite-difference column of the grid from
    array expressions over the grid points and the perturbed rows, bitwise
    the per-coordinate rebuilds' (D16, D18).
    """

    def __init__(self, ctx: _CurveContext, models: NuisanceModelSet | None):
        self.packed = np.zeros(0)
        self.dense = ctx.dense
        if models is None:
            return
        packed, scores, score_sums, rebuild = _augmented_blocks(ctx, models)
        p = packed.shape[0]
        self.packed = packed
        self.dense = np.asfortranarray(np.hstack([ctx.dense, scores(packed)]))
        self.steps = _FD_STEP * np.maximum(1.0, np.abs(packed))
        # Row j moves coordinate j up by its step, row p + j down.
        ends = np.concatenate([packed + np.diag(self.steps), packed - np.diag(self.steps)])
        self.dense_sums = np.empty((2 * p, 6))
        self.score_sums = np.empty((2 * p, p))
        self.xi_sorted = np.empty((ctx.xi_sorted.shape[0], 2 * p))
        self.f_row = np.zeros(2 * p, dtype=np.intp)
        f_values = [ctx.f_values]
        moves_pi_d = np.arange(2 * p) % p < models.pi_d.mean_coef.shape[0] + models.pi_d.resid_coef.shape[0]
        cap = max(1, _STACK_BLOCK // ctx.data.n)
        for refit in (True, False):
            rows = np.flatnonzero(moves_pi_d == refit)
            for chunk in np.array_split(rows, -(-rows.shape[0] // cap)):
                stack = rebuild(ends[chunk], refit)
                terms = outcome_terms(ctx.data, stack)
                self.dense_sums[chunk] = _fixed_columns(ctx.data, stack, terms, ctx.p_hat)[2].sum(axis=-1)
                self.score_sums[chunk] = score_sums(ends[chunk])
                self.xi_sorted[:, chunk] = terms.xi[:, ctx.window.order].T
                if refit:
                    self.f_row[chunk] = len(f_values) + np.arange(chunk.shape[0])
                    f_values.extend(stack.f_marginal.y)
        self.f_values = np.array(f_values)

    def fd_columns(self, ctx: _CurveContext, grid: np.ndarray, eta: np.ndarray, rules, spans) -> np.ndarray:
        """The (K, 4 + p, p) central-difference bread columns at the grid
        points: each perturbed row's summed equations, its fixed column sums
        through ``_coefficients`` plus its kernel part over the grid point's
        span, and its summed scores, differenced and divided by twice the
        step."""
        moments = _moments_of_f(rules, self.f_values)[:, self.f_row]
        summed = np.matmul(self.dense_sums[:, None, :], _coefficients(moments, eta[:, None, :]))[..., 0, :]
        for k, (delta, first, stop) in enumerate(zip(grid.tolist(), *(span.tolist() for span in spans))):
            u, lead = ctx.kernel_terms(delta, eta[k], (first, stop), self.xi_sorted)
            summed[k, :, 0] += lead.sum(axis=0)
            summed[k, :, 1] += (lead * u).sum(axis=0)
        ends = np.concatenate([summed, np.broadcast_to(self.score_sums, summed.shape[:1] + self.score_sums.shape)], -1)
        p = self.packed.shape[0]
        return np.swapaxes((ends[:, :p] - ends[:, p:]) / (2.0 * self.steps)[:, None], -1, -2)


def _coefficients(moments: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The (..., 6, 4) maps from the fixed columns to the four equations'
    dense parts at eta, one per row of the (..., 4) moments (a0, a1, b0,
    b1) of f and the (..., 4) eta broadcast against them."""
    out = np.zeros(moments.shape[:-1] + (6, 4))
    out[..., 0, 0], out[..., 1, 0], out[..., 0, 1], out[..., 1, 1] = np.moveaxis(moments, -1, 0)
    out[..., 2, 2] = out[..., 3, 3] = 1.0
    out[..., 4, 2], out[..., 5, 3] = -eta[..., 2], -eta[..., 3]
    return out


def _augmented_blocks(ctx: _CurveContext, models: NuisanceModelSet):
    """Parameter packing, score equations and rebuilds for the four
    parametric fits; the summed scores and the rebuild take one packed
    vector or a (R, p) stack of them."""
    for name, spec in models.specs.items():
        if spec.learner == "flexible-additive":
            raise EstimationError(
                f"augmented sandwich mode requires parametric learners; {name} is flexible-additive"
            )
    data = ctx.data
    x_t = data.x_treated
    d = data.dose
    trend_t, trend_c = data.split(data.trend)

    # pi_d's mean and squared-residual models share one design.
    r = models.pi_d.design.build(x_t)
    x_mu1 = models.mu1.design(d, x_t)
    x_pa = models.pi_a.design.build(data.x)
    x_mu0 = models.mu0.design.build(data.x_control)

    params = [
        models.pi_d.mean_coef,
        models.pi_d.resid_coef,
        models.mu1.coefficients,
        models.pi_a.coefficients,
        models.mu0.coefficients,
    ]
    splits = np.cumsum([p.shape[0] for p in params])[:-1]

    def parts(packed: np.ndarray) -> list:
        """Each model's per-unit scores on its own group: one ``(group,
        (..., n_group, k))`` pair per column block."""
        alpha_d, gamma_r, lam1, alpha_a, lam0 = np.split(packed, splits, axis=-1)
        treated = data.a
        eps = d - linear_predictor(r, alpha_d)
        residual_a = data.a.astype(float) - expit(linear_predictor(x_pa, alpha_a))
        return [
            (treated, ctx.wt[:, None] * r * eps[..., None]),
            (treated, ctx.wt[:, None] * r * (eps**2 - linear_predictor(r, gamma_r))[..., None]),
            (treated, ctx.wt[:, None] * x_mu1 * (trend_t - linear_predictor(x_mu1, lam1))[..., None]),
            (slice(None), data.weight[:, None] * x_pa * residual_a[..., None]),
            (~treated, ctx.wc[:, None] * x_mu0 * (trend_c - linear_predictor(x_mu0, lam0))[..., None]),
        ]

    def scores(packed: np.ndarray) -> np.ndarray:
        """Per-unit scores (n x p), one column block per model."""
        out = np.zeros((data.n, packed.shape[0]))
        for block, (group, values) in zip(np.split(out, splits, axis=1), parts(packed)):
            block[group] = values
        return out

    def score_sums(packed: np.ndarray) -> np.ndarray:
        """The scores summed over the units, (..., p): each block over its
        own group, in unit order."""
        return np.concatenate([values.sum(axis=-2) for _, values in parts(packed)], axis=-1)

    def rebuild(packed: np.ndarray, refit_pi_d: bool) -> NuisanceModelSet:
        """The model set at ``packed``, with its weight parts; pi_d and f are
        refit only when ``refit_pi_d``, and otherwise the fitted ones and
        their weight part serve."""
        alpha_d, gamma_r, lam1, alpha_a, lam0 = np.split(packed, splits, axis=-1)
        mu1 = models.mu1.with_coefficients(lam1)
        pi_a = models.pi_a.with_coefficients(alpha_a)
        mu0 = models.mu0.with_coefficients(lam0)
        # The curve's own node set: marginalize maps a node set to itself.
        nodes = models.dose_nodes
        if refit_pi_d:
            pi_d = models.pi_d.with_parameters(alpha_d, gamma_r, d, x_t, ctx.wt)
            m_curve, f_curve = marginalize(mu1, pi_d, data, nodes)
            dose_weights = DoseWeights.form(data, pi_d, f_curve)
        else:
            pi_d = models.pi_d
            m_curve, f_curve = marginalize(mu1, None, data, nodes)[0], models.f_marginal
            dose_weights = dose_weights_of(data, models, "clamp")
        return NuisanceModelSet(
            pi_a=pi_a,
            pi_d=pi_d,
            mu1=mu1,
            mu0=mu0,
            m_marginal=m_curve,
            f_marginal=f_curve,
            specs=models.specs,
            dose_weights=dose_weights,
            control_weights=ControlWeights.form(data, pi_a),
        )

    return np.concatenate(params), scores, score_sums, rebuild


def _prepare(data, models, curve, mode: str) -> tuple[_CurveContext, _NuisanceBlock]:
    """A curve's sandwich context and its nuisance block: empty in base
    mode, the finite-difference blocks in augmented mode."""
    if mode not in ("base", "augmented"):
        raise EstimationError(f"unknown sandwich mode {mode!r}")
    ctx = _CurveContext(data, models, curve)
    return ctx, _NuisanceBlock(ctx, models if mode == "augmented" else None)


class SandwichBands(tuple):
    """``(lower, upper, variances)`` along a curve's grid, with the largest
    condition number of the bread over the grid as ``bread_cond_max``."""

    def __new__(cls, lower: np.ndarray, upper: np.ndarray, variances: np.ndarray, bread_cond_max: float):
        bands = super().__new__(cls, (lower, upper, variances))
        bands.bread_cond_max = bread_cond_max
        return bands

    def __getnewargs__(self):
        return (*self, self.bread_cond_max)


def sandwich_bands(
    data: TwoPeriodDataset,
    models: NuisanceModelSet,
    curve: EffectCurveEstimate,
    mode: str = "base",
) -> SandwichBands:
    """95% pointwise normal-approximation bands along the curve's grid."""
    variances, cond_max = _variances([_prepare(data, models, curve, mode)], curve.grid)
    half = Z_95 * np.sqrt(variances)
    return SandwichBands(curve.psi - half, curve.psi + half, variances, cond_max)


def stacked_sandwich_variance(
    systems: list[tuple[TwoPeriodDataset, NuisanceModelSet, EffectCurveEstimate]],
    grid,
) -> np.ndarray:
    """Base-mode variances of the across-period average curve on ``grid``.

    ``systems`` holds one (data, models, curve) per period, all on one unit
    roster. Each unit's influence columns are averaged over the periods, so
    the variance picks up within-unit covariance across periods.
    """
    if not systems:
        raise EstimationError("no per-period systems supplied")
    if any(data_m.n != systems[0][0].n for data_m, _, _ in systems):
        raise EstimationError("stacked periods must share the unit roster")
    return _variances([_prepare(*period, "base") for period in systems], grid)[0]


def _variances(periods: list[tuple[_CurveContext, _NuisanceBlock]], grid) -> tuple[np.ndarray, float]:
    """The squared norm, at each delta of ``grid``, of the mean over
    ``periods`` of their influence columns, and the largest condition number
    of a bread; each period's bread must be invertible at every delta."""
    grid = np.asarray(grid, dtype=float).reshape(-1)
    passes = [_GridSystems(ctx, block, grid) for ctx, block in periods]
    out = np.empty(grid.shape[0])
    for k in range(grid.shape[0]):
        iota = sum(systems.influence(k) for systems in passes) / len(passes)
        out[k] = iota @ iota
    return out, max(float(systems.condition.max(initial=0.0)) for systems in passes)


class _GridSystems:
    """A curve's estimating systems at every grid point, formed as arrays
    over the grid: eta, the bread with the block's finite-difference
    columns and its condition number, and the coefficient map Z.

    At grid point k the system reduces to one per-unit influence column
    ``iota = Gamma solve(bread^T, contrast)``. With v = solve(bread^T,
    contrast), Gamma's dense part ``E Z`` gives ``E (Z v)``, one matrix-vector
    product over the fixed columns E, and its kernel part adds to the
    window's treated units only. Raises EstimationError at the first grid
    point whose bread is not invertible.
    """

    def __init__(self, ctx: _CurveContext, block: _NuisanceBlock, grid: np.ndarray):
        self.ctx, self.block, self.grid = ctx, block, grid
        self.eta, bread, self.spans = ctx.solve(grid)
        rules = ctx.rules(grid)
        p = block.packed.shape[0]
        self.bread = np.zeros((grid.shape[0], 4 + p, 4 + p))
        self.bread[:, :4, :4] = bread
        if p:
            self.bread[:, :, 4:] = block.fd_columns(ctx, grid, self.eta, rules, self.spans)
        self.condition = _conditions(self.bread)
        singular = ~(np.isfinite(self.condition) & (self.condition < 1e12))
        if np.any(singular):
            raise EstimationError(f"singular bread matrix at delta={float(grid[np.argmax(singular)])}")
        self.coefficients = np.zeros((grid.shape[0], 6 + p, 4 + p))
        self.coefficients[:, :6, :4] = _coefficients(_moments_of_f(rules, ctx.f_values), self.eta)
        self.coefficients[:, 6:, 4:] = np.eye(p)
        self.contrast = np.concatenate([_PSI_CONTRAST, np.zeros(p)])

    def influence(self, k: int) -> np.ndarray:
        """The (n,) influence column at grid point k."""
        ctx = self.ctx
        first, stop = int(self.spans[0][k]), int(self.spans[1][k])
        v = np.linalg.solve(self.bread[k].T, self.contrast)
        column = self.block.dense @ (self.coefficients[k] @ v)
        u, lead = ctx.kernel_terms(float(self.grid[k]), self.eta[k], (first, stop), ctx.xi_sorted[:, None])
        column[ctx.units_sorted[first:stop]] += np.hstack([lead, lead * u]) @ v[:2]
        return column


def _conditions(breads: np.ndarray) -> np.ndarray:
    """Each bread's 2-norm condition number; inf where it is singular or
    its SVD does not converge."""
    try:
        return np.linalg.cond(breads)
    except np.linalg.LinAlgError:
        out = np.full(breads.shape[0], np.inf)
        for k, bread in enumerate(breads):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[k] = np.linalg.cond(bread)
        return out


# --------------------------------------------------------------------------
# weighted bootstrap
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapResult:
    """Percentile confidence bands from unit-weighted replicates.

    ``curves`` holds the surviving replicates' psi rows in replicate order;
    ``failures`` counts the failed replicates by error class name;
    ``pi_a_unconverged`` counts the surviving replicates in which a pi_a
    fit's IRLS stopped at its iteration limit, and ``pi_d_var_floored``
    those in which pi_d's residual variance model fell below
    RESIDUAL_VAR_FLOOR at some treated unit: that unit's sdev is the
    floor's, and through its residual so are pi_d's KDE bandwidth and f.
    """

    b_requested: int
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    seed: int
    curves: np.ndarray  # (B_success, K)
    failures: dict[str, int] = field(default_factory=dict)
    pi_a_unconverged: int = 0
    pi_d_var_floored: int = 0

    @property
    def b_failed(self) -> int:
        return sum(self.failures.values())

    @property
    def flagged(self) -> bool:
        """More than a tenth of the replicates failed."""
        return self.b_failed > 0.1 * self.b_requested

    @property
    def counts(self) -> dict:
        """The run's counts by name, as the manifest and the repeated-period
        diagnostics record them (with the prefix ``bootstrap_``)."""
        return {
            "b": self.b_requested,
            "failed": self.b_failed,
            "flagged": self.flagged,
            "failures": self.failures,
            "pi_a_unconverged": self.pi_a_unconverged,
            "pi_d_var_floored": self.pi_d_var_floored,
        }


def bootstrap_weights(a: np.ndarray, seed: int, replicate: int) -> np.ndarray:
    """Exponential(1) unit weights, rescaled so each intervention group's
    weights sum to its observed size.

    The stream is counter-based (Philox keyed by (seed, replicate)), so any
    replicate's weights can be generated independently of the others.
    """
    a = np.asarray(a, dtype=bool)
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(replicate)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    w = rng.standard_exponential(a.shape[0])
    n_t = int(a.sum())
    w[a] *= n_t / w[a].sum()
    w[~a] *= (a.shape[0] - n_t) / w[~a].sum()
    return w


def bootstrap_replicates(
    a: np.ndarray,
    replicate,
    b_replicates: int,
    seed: int,
) -> list[BootstrapResult]:
    """The weighted bootstrap's replicate loop, one result per estimate.

    For b in 0..B-1 it draws ``bootstrap_weights(a, seed, b)`` and passes
    them to ``replicate`` a chunk at a time, as an (R, n) stack of rows.
    The chunks hold R = ceil(B / c) rows each (the last may hold fewer),
    where c is the least multiple of ``pool_size()`` for which R n stays
    within ``_STACK_BLOCK``: B = 200 at n = 500 on 2 CPUs runs as 8 chunks
    of 25 rows. The chunks run through ``fork_map`` on ``pool_size()``
    forked workers, which inherit ``replicate`` and this module's functions
    (so closures and patched functions behave as they do in-process), and
    merge in chunk order. ``replicate`` maps such a stack to M estimates
    with (R, K) psi, and one (n,) weight row to M estimates with (K,) psi,
    each row of the first being the second; a row does not depend on the
    other rows of its stack, so the result does not depend on the partition
    or the pool size. A replicate fails when ``replicate`` raises a DoseDidError on it,
    such as the DataValidationError of a dataset given weights that are not
    finite and nonnegative: a chunk that raises is rerun one row at a time,
    so the failed replicates, counted by error class, are skipped alone.
    Result m holds the survivors' psi rows of estimate m and their 2.5% and
    97.5% percentiles, and counts the survivors in which any estimate's
    pi_a IRLS stopped at its iteration limit, and those in which any
    estimate's pi_d residual variance was floored.

    Raises EstimationError when ``b_replicates < 2`` or every replicate
    fails.
    """
    if b_replicates < 2:
        raise EstimationError("bootstrap needs at least 2 replicates")
    workers = pool_size()
    cap = max(1, _STACK_BLOCK // max(1, np.shape(a)[0]))
    n_chunks = -(-b_replicates // cap)
    n_chunks = -(-n_chunks // workers) * workers
    rows = -(-b_replicates // n_chunks)
    chunks = [range(start, min(start + rows, b_replicates)) for start in range(0, b_replicates, rows)]

    parts = []  # (psi of shape (rows, M, K), pi_a stuck and pi_d floored flags (rows,)) per chunk or row
    failures: Counter = Counter()
    for chunk_parts, chunk_failures in fork_map(lambda c: _run_chunk(replicate, a, seed, c), chunks, workers):
        parts.extend(chunk_parts)
        failures.update(chunk_failures)
    if not parts:
        raise EstimationError("every bootstrap replicate failed")
    psi = np.concatenate([p for p, _, _ in parts])
    stuck = int(sum(np.count_nonzero(flags) for _, flags, _ in parts))
    floored = int(sum(np.count_nonzero(flags) for _, _, flags in parts))
    results = []
    for m in range(psi.shape[1]):
        curves = np.ascontiguousarray(psi[:, m])
        lo, hi = np.percentile(curves, [2.5, 97.5], axis=0)
        results.append(BootstrapResult(b_replicates, lo, hi, seed, curves, dict(failures), stuck, floored))
    return results


def _run_chunk(replicate, a, seed: int, chunk: range) -> tuple[list, Counter]:
    """One chunk of replicates, in-process or in a worker: ``replicate`` on
    their (R, n) stack of ``bootstrap_weights`` or, when that raises a
    DoseDidError, on each weight row alone. Returns the ``_replicate_rows``
    parts in replicate order and the failed replicates counted by error
    class."""
    stack = np.stack([bootstrap_weights(a, seed, b) for b in chunk])
    try:
        return [_replicate_rows(replicate(stack))], Counter()
    except DoseDidError:
        pass
    parts = []
    failures: Counter = Counter()
    for weight in stack:
        try:
            parts.append(_replicate_rows(replicate(weight)))
        except DoseDidError as err:
            failures[type(err).__name__] += 1
    return parts, failures


def _replicate_rows(estimates: list[EffectCurveEstimate]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (rows, M, K) psi of M estimates, stacked or not, and the (rows,)
    flags of the replicates in which some pi_a IRLS stopped at max_iter and
    of those in which some pi_d residual variance was floored."""
    psi = np.stack([np.atleast_2d(e.psi) for e in estimates], axis=1)
    stuck = np.zeros(psi.shape[0], dtype=bool)
    floored = np.zeros(psi.shape[0], dtype=bool)
    for estimate in estimates:
        converged = estimate.diagnostics.get("pi_a_converged")
        if converged is not None:
            stuck |= ~np.atleast_1d(converged)
        hits = estimate.diagnostics.get("pi_d_var_floor_hits")
        if hits is not None:
            floored |= np.atleast_1d(hits) > 0
    return psi, stuck, floored


def weighted_bootstrap(
    data: TwoPeriodDataset,
    estimator_config: EstimatorConfig,
    b_replicates: int,
    seed: int,
) -> BootstrapResult:
    """Unit-level exponential weighted bootstrap of an effect curve.

    Each replicate re-runs the full pipeline described by
    ``estimator_config`` (nuisance fits, pseudo-outcomes, smoothing) on
    ``replace(data, weight=w)``, so the drawn unit weights reach every fit
    and mean, through ``bootstrap_replicates`` with one estimate per
    replicate; a chunk of replicates runs as one stacked estimate.

    Raises EstimationError when ``b_replicates < 2``, when the config has
    no fixed grid, or when it has no fixed bandwidth for a smoothing method
    (MR, IPW, NAIVE): leave-one-out selection does not run on a weight
    stack.
    """
    if estimator_config.grid is None:
        raise EstimationError("bootstrap requires a fixed evaluation grid in the estimator config")
    if estimator_config.bandwidth is None and estimator_config.method in SMOOTHED_METHODS:
        raise EstimationError(
            f"bootstrap of {estimator_config.method} requires a fixed bandwidth in the estimator config"
        )
    (result,) = bootstrap_replicates(
        data.a,
        lambda w: [estimator_config.build(replace(data, weight=w))],
        b_replicates,
        seed,
    )
    return result


# --------------------------------------------------------------------------
# process pool
# --------------------------------------------------------------------------


def pool_size() -> int:
    """How many processes ``fork_map`` may use: the CPUs this process may
    run on (its affinity set, so ``taskset`` restricts it, else the
    machine's count), or 1, meaning no pool, inside a multiprocessing
    child, so a study worker never nests pools, and where processes cannot
    fork."""
    if multiprocessing.parent_process() is not None or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_FORKED = None  # the function a fork_map worker applies; set in the workers only


def _install(fn) -> None:
    global _FORKED
    _FORKED = fn


def _call_forked(item):
    return _FORKED(item)


def fork_map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, in order, on up to ``workers``
    forked processes, or in-process when that is 1; callers pass at most
    ``pool_size()``. ``fn`` reaches the workers through fork, as the
    executor's initializer argument, so it may be a closure; only the items
    and the results are pickled. The pool lives for this call alone."""
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_install, initargs=(fn,)) as pool:
        return list(pool.map(_call_forked, items))
