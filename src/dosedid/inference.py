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
  units inside the kernel window. So iota costs one (n x q) product and
  O(window) arithmetic, the finite-difference bread columns only the
  perturbed sets' fixed column sums and window sums, all in one array
  expression, and no n x P array is built at a grid point.
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

import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .curves import SMOOTHED_METHODS, EffectCurveEstimate, EstimatorConfig
from .data import TwoPeriodDataset
from .errors import DoseDidError, EstimationError
from .numeric import WindowedMoments, epanechnikov, expit, linear_predictor
from .nuisance import NuisanceModelSet, marginalize
from .pseudo import compute_theta0, compute_xi_terms, normalize_weights

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
_FD_STEP = 1e-5
# 3-point Gauss-Legendre on [-1, 1]: exact for polynomials of degree <= 5.
_GL_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GL_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0
_PSI_CONTRAST = np.array([1.0, 0.0, -1.0, -1.0])  # psi = theta - theta00 - theta01
# The bootstrap fits its replicates in chunks of rows whose (rows x units)
# weight stack holds at most this many elements.
_STACK_BLOCK = 16_384


@dataclass(frozen=True)
class EstimatingSystem:
    """One solved estimating-equation system at a fixed delta.

    The per-unit equation values (n x P) are ``gamma = dense @ coefficients``
    plus the kernel part: ``dense`` (n x q) is fixed per curve,
    ``coefficients`` (q x P) depends on delta and eta, and ``kernel`` (w x 2)
    adds to the first two equations of the units ``kernel_units`` only, the
    treated units inside the kernel window. ``bread`` is the summed Jacobian
    estimate; ``contrast`` maps the parameter vector to the scalar of
    interest.
    """

    eta: np.ndarray
    bread: np.ndarray
    contrast: np.ndarray
    dense: np.ndarray
    coefficients: np.ndarray
    kernel_units: np.ndarray
    kernel: np.ndarray

    @cached_property
    def condition(self) -> float:
        """The bread's 2-norm condition number; inf when it is singular."""
        try:
            return float(np.linalg.cond(self.bread))
        except np.linalg.LinAlgError:
            return np.inf

    @property
    def bread_invertible(self) -> bool:
        return bool(np.isfinite(self.condition) and self.condition < 1e12)


def _influence(systems: list[EstimatingSystem]) -> np.ndarray:
    """The mean over ``systems`` (one per period, on one unit roster) of
    their influence columns. With v = solve(bread^T, contrast) a column is
    ``dense @ (coefficients @ v)`` plus ``kernel @ v[:2]`` on its kernel
    units, so it costs one (n x q) product and a pass over the window."""
    iota = 0.0
    for system in systems:
        v = np.linalg.solve(system.bread.T, system.contrast)
        column = system.dense @ (system.coefficients @ v)
        column[system.kernel_units] += system.kernel @ v[:2]
        iota = iota + column
    return iota / len(systems)


class _CurveContext:
    """Per-curve quantities reused across grid deltas by the sandwich.

    The base system's four per-unit equations split into two parts. The
    dense part ``dense @ coefficients(rule, eta)`` has six fixed columns:
    wt alpha / p and wt phi / p on the treated (the quadrature corrections
    are their combinations with f's quadrature weights; mu1 is linear in its
    coefficients, so the covariate-level deviation mu1(d, X_i) - m(d) is
    ``alpha_i + phi_i * d``), the theta00 equation's data term and weight on
    the controls, and the theta01 equation's on the treated. The kernel part
    lives on the treated units inside the kernel window, a slice of the
    dose-sorted order. At a delta the context costs one quadrature rule over
    the nodes in the window and O(window) arithmetic; the fixed columns and
    their sums are formed once. xi, theta00, theta01 and the control
    weight come from ``compute_xi_terms`` and ``compute_theta0``, the
    routines the MR curve's two sides call. A model set with (R, k)
    coefficient stacks gives one row per stacked set in every per-unit
    array and in ``dense_sums``, each bitwise the set's alone; the augmented
    block builds its perturbed sets so.
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

        self.xi, _ = compute_xi_terms(data, models, "clamp")
        self.theta00, self.theta01, raw_w0 = compute_theta0(data, models)

        self.nodes = models.dose_nodes
        self.f_values = models.f_marginal.y
        level, slope = models.mu1.unit_terms(data.x_treated)
        self.alpha = level - np.asarray(models.m_marginal.level)[..., None]
        self.phi = slope - np.asarray(models.m_marginal.slope)[..., None]

        # theta00/theta01 are self-normalized group means, so their
        # equations live on their own group only.
        treated = data.a
        mu0 = models.mu0(data.x)
        trend_c = data.trend[~treated]
        columns = np.zeros(self.xi.shape[:-1] + (6, data.n))
        columns[..., 0, treated] = self.wt * self.alpha / self.p_hat
        columns[..., 1, treated] = self.wt * self.phi / self.p_hat
        columns[..., 2, ~treated] = self.wc * normalize_weights(raw_w0, self.wc) * (trend_c - mu0[..., ~treated])
        columns[..., 3, treated] = self.wt * mu0[..., treated]
        columns[..., 4, ~treated] = self.wc
        columns[..., 5, treated] = self.wt
        # (n, 6) column-major: a product with a coefficient vector streams
        # each column once.
        self.dense = np.swapaxes(columns, -1, -2)
        self.dense_sums = columns.sum(axis=-1)

        # The window's sort: ``solve``'s span indexes this order.
        order = np.argsort(data.dose, kind="stable")
        self.units_sorted = np.flatnonzero(treated)[order]
        self.dose_sorted = data.dose[order]
        self.xi_sorted = self.xi[..., order]
        self.wt_sorted = self.wt[order]

    @cached_property
    def window(self) -> WindowedMoments:
        """The local linear moments of xi; only ``solve`` reads them, so the
        finite-difference contexts never build them."""
        return WindowedMoments(self.data.dose, self.xi, self.wt)

    def quadrature(self, delta: float) -> tuple[int, np.ndarray]:
        """``(first, weights)``: a (4, m) matrix whose rows, applied to the
        values of any piecewise-linear f on the nodes ``first`` to
        ``first + m - 1``, give the integrals over the node range of
        K(u) f(d) times 1, d, u and u d, with u = (d - delta) / h.

        The breakpoints are the nodes and the window ends delta +- h, and
        between them the integrand is a polynomial of degree <= 5, so
        3-point Gauss-Legendre is exact on each piece. The weights depend
        only on the nodes, h and delta; contexts sharing the nodes share
        them.
        """
        nodes, h = self.nodes, self.h
        lo = max(delta - h, float(nodes[0]))
        hi = min(delta + h, float(nodes[-1]))
        if not hi > lo:
            return 0, np.zeros((4, 1))
        first = min(int(np.searchsorted(nodes, lo, side="right")) - 1, nodes.shape[0] - 2)
        stop = int(np.searchsorted(nodes, hi, side="left"))
        breaks = np.concatenate([[lo], nodes[first + 1 : stop], [hi]])
        half = 0.5 * (breaks[1:] - breaks[:-1])
        # (3, pieces): the Gauss-Legendre points of each piece, column-wise;
        # piece p lies between nodes first + p and first + p + 1.
        d = 0.5 * (breaks[1:] + breaks[:-1]) + _GL_NODES[:, None] * half
        u = (d - delta) / h
        kw = 0.75 * (1.0 - u * u) * (_GL_WEIGHTS[:, None] * half)
        left = nodes[first:stop]
        t = (d - left) / (nodes[first + 1 : stop + 1] - left)
        ku = kw * u
        weights = np.zeros((4, stop - first + 1))
        for row, moment in enumerate((kw, kw * d, ku, ku * d)):
            upper = moment * t
            weights[row, :-1] = (moment - upper).sum(axis=0)
            weights[row, 1:] += upper.sum(axis=0)
        return first, weights

    def moments_of_f(self, rule: tuple[int, np.ndarray]) -> np.ndarray:
        """``(a0, a1, b0, b1)``: the integrals of K(u) f(d) times 1, d, u and
        u d under a ``quadrature`` rule."""
        first, weights = rule
        return weights @ self.f_values[first : first + weights.shape[1]]

    def corrections(self, rule: tuple[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Per-treated-unit quadrature terms (c0, c1) under a ``quadrature``
        rule: the integrals of K(u) f(d) (mu1(d, X_i) - m(d)) and of the
        same times u."""
        a0, a1, b0, b1 = self.moments_of_f(rule)
        return self.alpha * a0 + self.phi * a1, self.alpha * b0 + self.phi * b1

    def coefficients(self, rule: tuple[int, np.ndarray], eta: np.ndarray) -> np.ndarray:
        """The (6, 4) map from the fixed columns to the four equations'
        dense parts at eta, with the corrections under ``rule``."""
        return _coefficients(self.moments_of_f(rule), eta)

    def kernel_terms(self, delta: float, eta: np.ndarray, span: tuple[int, int], xi_sorted: np.ndarray):
        """``(u, lead)`` at the dose-sorted treated units ``first`` to ``stop
        - 1`` of ``span``: the column u = (D - delta) / h and lead = wt K(u)
        (xi - theta - u beta) / p, one column per column of the (n_t, R)
        ``xi_sorted``."""
        first, stop = span
        u = ((self.dose_sorted[first:stop] - delta) / self.h)[:, None]
        resid = xi_sorted[first:stop] - eta[0] - u * eta[1]
        return u, self.wt_sorted[first:stop, None] * (epanechnikov(u) * resid) / self.p_hat

    def kernel(self, delta: float, eta: np.ndarray, span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """The kernel part of the two local-linear equations at (delta, eta):
        the unit positions of the dose-sorted treated units ``first`` to
        ``stop - 1`` of ``span`` and their (w, 2) values
        wt K(u) (xi - theta - u beta) / p times 1 and u."""
        u, lead = self.kernel_terms(delta, eta, span, self.xi_sorted[:, None])
        return self.units_sorted[span[0] : span[1]], np.hstack([lead, lead * u])

    def solve(self, delta: float) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
        """eta at delta, the analytic Jacobian of the summed base equations
        in eta, and the kernel window's span ``(first, stop)``: the
        dose-sorted treated units ``first`` to ``stop - 1`` have positive
        kernel weight."""
        moments = self.window.moments([delta], self.h)
        (theta,), (beta,) = self.window.solve([delta], self.h, moments)
        s0, s1, s2, _, _, (first,), (stop,) = moments
        s0, s1, s2 = (float(m[0]) / self.p_hat for m in (s0, s1, s2))
        bread = np.diag([-s0, -s2, -float(np.sum(self.wc)), -float(np.sum(self.wt))])
        bread[0, 1] = bread[1, 0] = -s1
        return np.array([theta, beta, self.theta00, self.theta01]), bread, (int(first), int(stop))


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
    ``_STACK_BLOCK // n`` rows through one stacked ``_CurveContext``, and
    only what a grid point reads is kept, one row per perturbed set: the
    sums of the six fixed columns (2p, 6), the dose-sorted xi as columns
    (n_t, 2p), an index into the f tables (row 0 the curve's own f), and
    the summed scores (2p, p). Every context tabulates f on the curve's
    node set, so one quadrature rule per grid point serves them all, and
    ``fd_columns`` forms every finite-difference column at a delta from one
    array expression, bitwise the per-coordinate rebuilds' (D16).
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
                stack = _CurveContext(ctx.data, rebuild(ends[chunk], refit), ctx.curve)
                self.dense_sums[chunk] = stack.dense_sums
                self.score_sums[chunk] = score_sums(ends[chunk])
                self.xi_sorted[:, chunk] = stack.xi_sorted.T
                if refit:
                    self.f_row[chunk] = len(f_values) + np.arange(chunk.shape[0])
                    f_values.extend(stack.f_values)
        self.f_values = np.array(f_values)

    def fd_columns(self, ctx: _CurveContext, delta: float, eta: np.ndarray, rule, span) -> np.ndarray:
        """The (4 + p, p) central-difference bread columns at delta: each
        perturbed row's summed equations, its fixed column sums through
        ``_coefficients`` plus its kernel part over ``span``, and its summed
        scores, differenced and divided by twice the step."""
        first, weights = rule
        moments = np.matmul(weights, self.f_values[:, first : first + weights.shape[1], None])[self.f_row, :, 0]
        summed = np.matmul(self.dense_sums[:, None, :], _coefficients(moments, eta))[:, 0]
        u, lead = ctx.kernel_terms(delta, eta, span, self.xi_sorted)
        summed[:, 0] += lead.sum(axis=0)
        summed[:, 1] += (lead * u).sum(axis=0)
        ends = np.hstack([summed, self.score_sums])
        p = self.packed.shape[0]
        return ((ends[:p] - ends[p:]) / (2.0 * self.steps)[:, None]).T


def _coefficients(moments: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The (..., 6, 4) maps from the fixed columns to the four equations'
    dense parts at eta, one per row of the (..., 4) moments (a0, a1, b0,
    b1) of f."""
    out = np.zeros(moments.shape[:-1] + (6, 4))
    out[..., 0, 0], out[..., 1, 0], out[..., 0, 1], out[..., 1, 1] = np.moveaxis(moments, -1, 0)
    out[..., 2, 2] = out[..., 3, 3] = 1.0
    out[..., 4, 2], out[..., 5, 3] = -eta[2], -eta[3]
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
        """The model set at ``packed``; pi_d and f are refit only when
        ``refit_pi_d``, and otherwise the fitted ones serve."""
        alpha_d, gamma_r, lam1, alpha_a, lam0 = np.split(packed, splits, axis=-1)
        mu1 = models.mu1.with_coefficients(lam1)
        pi_a = models.pi_a.with_coefficients(alpha_a)
        mu0 = models.mu0.with_coefficients(lam0)
        # The curve's own node set: marginalize maps a node set to itself.
        nodes = models.dose_nodes
        if refit_pi_d:
            pi_d = models.pi_d.with_parameters(alpha_d, gamma_r, d, x_t, ctx.wt)
            m_curve, f_curve = marginalize(mu1, pi_d, data, nodes)
        else:
            pi_d = models.pi_d
            m_curve, f_curve = marginalize(mu1, None, data, nodes)[0], models.f_marginal
        return NuisanceModelSet(
            pi_a=pi_a,
            pi_d=pi_d,
            mu1=mu1,
            mu0=mu0,
            m_marginal=m_curve,
            f_marginal=f_curve,
            dose_nodes=m_curve.x,
            specs=models.specs,
        )

    return np.concatenate(params), scores, score_sums, rebuild


def _prepare(data, models, curve, mode: str) -> tuple[_CurveContext, _NuisanceBlock]:
    """A curve's sandwich context and its nuisance block: empty in base
    mode, the finite-difference blocks in augmented mode."""
    if mode not in ("base", "augmented"):
        raise EstimationError(f"unknown sandwich mode {mode!r}")
    ctx = _CurveContext(data, models, curve)
    return ctx, _NuisanceBlock(ctx, models if mode == "augmented" else None)


def _system(ctx: _CurveContext, block: _NuisanceBlock, delta: float) -> EstimatingSystem:
    """The estimating system at one delta over a curve's shared context,
    with the block's nuisance equations appended."""
    eta, bread, span = ctx.solve(delta)
    rule = ctx.quadrature(delta)
    p = block.packed.shape[0]
    bread_full = np.zeros((4 + p, 4 + p))
    bread_full[:4, :4] = bread
    if p:
        bread_full[:, 4:] = block.fd_columns(ctx, delta, eta, rule, span)
    coefficients = np.zeros((6 + p, 4 + p))
    coefficients[:6, :4] = ctx.coefficients(rule, eta)
    coefficients[6:, 4:] = np.eye(p)
    units, kernel = ctx.kernel(delta, eta, span)
    return EstimatingSystem(
        eta=np.concatenate([eta, block.packed]),
        bread=bread_full,
        contrast=np.concatenate([_PSI_CONTRAST, np.zeros(p)]),
        dense=block.dense,
        coefficients=coefficients,
        kernel_units=units,
        kernel=kernel,
    )


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
    contexts = [_CurveContext(*period) for period in systems]
    return _variances([(ctx, _NuisanceBlock(ctx, None)) for ctx in contexts], grid)[0]


def _variances(periods: list[tuple[_CurveContext, _NuisanceBlock]], grid) -> tuple[np.ndarray, float]:
    """The squared norm, at each delta of ``grid``, of the mean over
    ``periods`` of their influence columns, and the largest condition number
    of a bread; each period's bread must be invertible."""
    out = np.empty(len(grid))
    cond_max = 0.0
    for k, delta in enumerate(grid):
        delta = float(delta)
        systems = [_system(ctx, block, delta) for ctx, block in periods]
        for system in systems:
            if not system.bread_invertible:
                raise EstimationError(f"singular bread matrix at delta={delta}")
            cond_max = max(cond_max, system.condition)
        iota = _influence(systems)
        out[k] = iota @ iota
    return out, cond_max


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
    def b_success(self) -> int:
        return self.b_requested - self.b_failed

    @property
    def flagged(self) -> bool:
        """More than a tenth of the replicates failed."""
        return self.b_failed > 0.1 * self.b_requested


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
    weight_fn=None,
) -> list[BootstrapResult]:
    """The weighted bootstrap's replicate loop, one result per estimate.

    For b in 0..B-1 it draws ``bootstrap_weights(a, seed, b)`` (or
    ``weight_fn(b)``, a testing hook) and passes them to ``replicate`` a
    chunk at a time, as an (R, n) stack of rows. The chunks hold R =
    ceil(B / c) rows each (the last may hold fewer), where c is the least
    multiple of ``pool_size()`` for which R n stays within
    ``_STACK_BLOCK``: B = 200 at n = 500 on 2 CPUs runs as 8 chunks of 25
    rows. The chunks run through ``fork_map`` on ``pool_size()`` forked
    workers, which inherit ``replicate`` and ``weight_fn`` (so closures and
    patched functions behave as they do in-process), and merge in chunk
    order. ``replicate`` maps such a stack to M estimates with (R, K) psi,
    and one (n,) weight row to M estimates with (K,) psi, each row of the
    first being the second; a row does not depend on the other rows of its
    stack, so the result does not depend on the partition or the pool
    size. A replicate fails when ``replicate`` raises a DoseDidError on it,
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
    if weight_fn is None:
        weight_fn = lambda b: bootstrap_weights(a, seed, b)  # noqa: E731
    workers = pool_size()
    cap = max(1, _STACK_BLOCK // max(1, np.shape(a)[0]))
    n_chunks = -(-b_replicates // cap)
    n_chunks = -(-n_chunks // workers) * workers
    rows = -(-b_replicates // n_chunks)
    chunks = [range(start, min(start + rows, b_replicates)) for start in range(0, b_replicates, rows)]

    parts = []  # (psi of shape (rows, M, K), pi_a stuck and pi_d floored flags (rows,)) per chunk or row
    failures: Counter = Counter()
    for chunk_parts, chunk_failures in fork_map(lambda c: _run_chunk(replicate, weight_fn, c), chunks, workers):
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


def _run_chunk(replicate, weight_fn, chunk: range) -> tuple[list, Counter]:
    """One chunk of replicates, in-process or in a worker: ``replicate`` on
    their (R, n) weight stack or, when that raises a DoseDidError, on each
    weight row alone. Returns the ``_replicate_rows`` parts in replicate
    order and the failed replicates counted by error class."""
    stack = np.stack([weight_fn(b) for b in chunk])
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
    weight_fn=None,
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
        weight_fn,
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
