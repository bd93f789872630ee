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
  kernel's ends, and 3-point Gauss-Legendre integrates it exactly. A
  correction costs O(n + nodes in the window). Augmented mode appends the
  nuisance-model score equations and differentiates through the whole
  pipeline by central differences. Both modes solve every grid point over
  one per-curve context, and augmented mode builds its 2p perturbed
  contexts once per curve, refitting pi_d and f only for pi_d's own
  coordinates.

  At each delta a system reduces to one per-unit influence column
  ``iota = Gamma solve(bread^T, contrast)``, and the variance is the squared
  norm ``iota . iota``: nonnegative by construction, so it is never floored.
  The variance of an average over M periods that share the unit roster is
  the squared norm of the mean of the periods' columns, which is the
  block-diagonal stacked system in closed form and picks up the
  cross-period covariance within each unit.

* **Weighted bootstrap**: per replicate one exponential(1) weight per unit,
  rescaled so each intervention group's weights sum to its observed size,
  set as the dataset's ``weight`` and so read by the entire estimation
  pipeline; percentile intervals from the replicate curves.
  ``bootstrap_replicates`` is the one replicate loop: it draws the weights,
  hands them to the estimator a chunk of replicates at a time as an (R, n)
  weight stack, so one pass of the pipeline fits R replicates, counts
  failed replicates by error class and takes the percentiles of each
  estimate's psi rows. ``weighted_bootstrap`` runs it with one estimate,
  the repeated-period workflow with one per period pair plus their average.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .curves import SMOOTHED_METHODS, EffectCurveEstimate, EstimatorConfig
from .data import TwoPeriodDataset
from .errors import DoseDidError, EstimationError
from .numeric import WindowedMoments, epanechnikov, expit
from .nuisance import NuisanceModelSet, marginalize
from .pseudo import build_pseudo_outcomes

__all__ = [
    "Z_95",
    "EstimatingSystem",
    "BootstrapResult",
    "build_estimating_system",
    "sandwich_variance",
    "sandwich_bands",
    "stacked_sandwich_variance",
    "bootstrap_weights",
    "bootstrap_replicates",
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

    ``gamma`` holds per-unit equation values (n x P); ``bread`` the summed
    Jacobian estimate; ``meat`` the outer-product sum. ``contrast`` maps the
    parameter vector to the scalar of interest.
    """

    eta: np.ndarray
    gamma: np.ndarray
    bread: np.ndarray
    contrast: np.ndarray

    @property
    def meat(self) -> np.ndarray:
        return self.gamma.T @ self.gamma

    @property
    def bread_invertible(self) -> bool:
        try:
            cond = np.linalg.cond(self.bread)
        except np.linalg.LinAlgError:
            return False
        return bool(np.isfinite(cond) and cond < 1e12)

    def covariance(self) -> np.ndarray:
        binv = np.linalg.inv(self.bread)
        return binv @ self.meat @ binv.T

    def influence(self) -> np.ndarray:
        """The per-unit influence column ``gamma @ solve(bread^T, contrast)``
        of the contrast: contrast' B^-1 (Gamma' Gamma) B^-T contrast is its
        squared norm."""
        return self.gamma @ np.linalg.solve(self.bread.T, self.contrast)

    def variance(self) -> float:
        iota = self.influence()
        return float(iota @ iota)


class _CurveContext:
    """Per-curve quantities reused across grid deltas by the sandwich.

    It holds O(n) arrays, f's tabulated values and no models. mu1 is linear
    in its coefficients, so the covariate-level deviation mu1(d, X_i) - m(d)
    is ``alpha_i + phi_i * d`` (the dose block cancels), and the quadrature
    corrections need only the two per-unit vectors.
    """

    def __init__(self, data: TwoPeriodDataset, models: NuisanceModelSet, curve: EffectCurveEstimate):
        if curve.method != "MR":
            raise EstimationError("sandwich variance is defined for the MR curve")
        if curve.bandwidth is None:
            raise EstimationError("curve carries no bandwidth")
        self.data = data
        self.curve = curve
        self.h = float(curve.bandwidth)
        self.w_all, self.wt, self.wc = data.weight, data.weight_treated, data.weight_control
        self.p_hat = float(np.sum(self.wt) / np.sum(self.w_all))

        pseudo = build_pseudo_outcomes(data, models, on_out_of_range="clamp")
        self.xi = pseudo.xi
        self.w0n = pseudo.w0
        self.theta00 = pseudo.theta00
        self.theta01 = pseudo.theta01
        self.mu0_all = models.mu0(data.x)
        self.window = WindowedMoments(data.dose, self.xi, self.wt)

        self.nodes = models.dose_nodes
        self.f_values = models.f_marginal.y
        level, slope = models.mu1.unit_terms(data.x_treated)
        self.alpha = level - models.m_marginal.level
        self.phi = slope - models.m_marginal.slope

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

    def corrections(self, rule: tuple[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Per-treated-unit quadrature terms (c0, c1) under a ``quadrature``
        rule: the integrals of K(u) f(d) (mu1(d, X_i) - m(d)) and of the
        same times u."""
        first, weights = rule
        a0, a1, b0, b1 = weights @ self.f_values[first : first + weights.shape[1]]
        return self.alpha * a0 + self.phi * a1, self.alpha * b0 + self.phi * b1

    def gamma_eta(self, delta: float, eta: np.ndarray, rule: tuple[int, np.ndarray]) -> np.ndarray:
        """Base 4-column per-unit estimating equations at (delta, eta), with
        the corrections under ``rule`` (``quadrature(delta)``)."""
        data = self.data
        theta, beta, theta00, theta01 = eta
        c0, c1 = self.corrections(rule)

        u = (data.dose - delta) / self.h
        k = epanechnikov(u)
        resid = self.xi - theta - u * beta

        gamma = np.zeros((data.n, 4))
        treated = data.a
        gamma[treated, 0] = self.wt * (k * resid + c0) / self.p_hat
        gamma[treated, 1] = self.wt * (k * u * resid + c1) / self.p_hat
        trend_c = data.trend[~treated]
        mu0_c = self.mu0_all[~treated]
        # theta00/theta01 are self-normalized group means, so their
        # equations live on their own group only.
        gamma[~treated, 2] = self.wc * (self.w0n * (trend_c - mu0_c) - theta00)
        gamma[treated, 3] = self.wt * (self.mu0_all[treated] - theta01)

        return gamma

    def solve(self, delta: float) -> tuple[np.ndarray, np.ndarray]:
        """eta at delta, and the analytic Jacobian of the summed base
        equations in eta."""
        (theta,), (beta,) = self.window.fit([delta], self.h)
        s0, s1, s2 = (float(m[0]) / self.p_hat for m in self.window.moments([delta], self.h)[:3])
        bread = np.diag([-s0, -s2, -float(np.sum(self.wc)), -float(np.sum(self.wt))])
        bread[0, 1] = bread[1, 0] = -s1
        return np.array([theta, beta, self.theta00, self.theta01]), bread


class _FiniteDifferences:
    """The augmented mode's nuisance blocks for one curve.

    The nuisance scores and the 2p central-difference nuisance sets do not
    depend on delta. Each perturbed set is therefore rebuilt, marginalized
    and reduced to a ``_CurveContext`` once, and every grid point reuses the
    contexts; the rebuilt models themselves are not kept. Every context
    tabulates f on the curve's node set, so one quadrature rule per grid
    point serves them all.
    """

    def __init__(self, ctx: _CurveContext, models: NuisanceModelSet):
        packed, scores, rebuild = _augmented_blocks(ctx, models)
        self.packed = packed
        self.scores = scores(packed)

        def end(packed_pt: np.ndarray):
            return _CurveContext(ctx.data, rebuild(packed_pt), ctx.curve), scores(packed_pt).sum(axis=0)

        # per parameter: (step, (context, summed scores) at +step, the same at -step)
        self.columns = []
        for j in range(packed.shape[0]):
            step = _FD_STEP * max(1.0, abs(packed[j]))
            hi = packed.copy()
            hi[j] += step
            lo = packed.copy()
            lo[j] -= step
            self.columns.append((step, end(hi), end(lo)))


def _augmented_blocks(ctx: _CurveContext, models: NuisanceModelSet):
    """Parameter packing and score equations for the four parametric fits."""
    for name, spec in models.specs.items():
        if spec.learner == "flexible-additive":
            raise EstimationError(
                f"augmented sandwich mode requires parametric learners; {name} is flexible-additive"
            )
    data = ctx.data
    x_t = data.x_treated
    d = data.dose
    trend_t, trend_c = data.split(data.trend)

    r_mean = models.pi_d.mean_design.build(x_t)
    r_resid = models.pi_d.resid_design.build(x_t)
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

    def scores(packed: np.ndarray) -> np.ndarray:
        """Per-unit scores (n x p), one column block per model; each block
        is a view into ``out`` and lives on the model's own group."""
        alpha_d, gamma_r, lam1, alpha_a, lam0 = np.split(packed, splits)
        out = np.zeros((data.n, packed.shape[0]))
        blocks = np.split(out, splits, axis=1)
        treated = data.a
        eps = d - r_mean @ alpha_d
        blocks[0][treated] = ctx.wt[:, None] * r_mean * eps[:, None]
        blocks[1][treated] = ctx.wt[:, None] * r_resid * (eps**2 - r_resid @ gamma_r)[:, None]
        blocks[2][treated] = ctx.wt[:, None] * x_mu1 * (trend_t - x_mu1 @ lam1)[:, None]
        blocks[3][:] = ctx.w_all[:, None] * x_pa * (data.a.astype(float) - expit(x_pa @ alpha_a))[:, None]
        blocks[4][~treated] = ctx.wc[:, None] * x_mu0 * (trend_c - x_mu0 @ lam0)[:, None]
        return out

    def rebuild(packed: np.ndarray) -> NuisanceModelSet:
        alpha_d, gamma_r, lam1, alpha_a, lam0 = np.split(packed, splits)
        mu1 = models.mu1.with_coefficients(lam1)
        pi_a = models.pi_a.with_coefficients(alpha_a)
        mu0 = models.mu0.with_coefficients(lam0)
        # The curve's own node set: marginalize maps a node set to itself.
        nodes = models.dose_nodes
        if _pi_d_unchanged(models.pi_d, alpha_d, gamma_r):
            # Only pi_d's own coordinates move pi_d and f.
            pi_d = models.pi_d
            m_curve, f_curve = marginalize(mu1, None, data, nodes)[0], models.f_marginal
        else:
            pi_d = models.pi_d.with_parameters(alpha_d, gamma_r, d, x_t, ctx.wt)
            m_curve, f_curve = marginalize(mu1, pi_d, data, nodes)
        return NuisanceModelSet(
            pi_a=pi_a,
            pi_d=pi_d,
            mu1=mu1,
            mu0=mu0,
            m_marginal=m_curve,
            f_marginal=f_curve,
            dose_nodes=m_curve.x,
            specs=models.specs,
            data=data,
        )

    return np.concatenate(params), scores, rebuild


def _pi_d_unchanged(pi_d, mean_coef: np.ndarray, resid_coef: np.ndarray) -> bool:
    """Whether a perturbed parameter vector leaves pi_d's coefficients as
    they are, so that the fitted pi_d and f serve unchanged."""
    return bool(np.array_equal(mean_coef, pi_d.mean_coef) and np.array_equal(resid_coef, pi_d.resid_coef))


def _prepare(data, models, curve, mode: str) -> tuple[_CurveContext, _FiniteDifferences | None]:
    """A curve's sandwich context, and its finite-difference blocks in
    augmented mode."""
    if mode not in ("base", "augmented"):
        raise EstimationError(f"unknown sandwich mode {mode!r}")
    ctx = _CurveContext(data, models, curve)
    return ctx, _FiniteDifferences(ctx, models) if mode == "augmented" else None


def build_estimating_system(
    data: TwoPeriodDataset,
    models: NuisanceModelSet,
    curve: EffectCurveEstimate,
    delta: float,
    mode: str = "base",
) -> EstimatingSystem:
    """Assemble Gamma, bread, and meat for one delta.

    ``mode="base"`` treats the nuisance fits as fixed; ``mode="augmented"``
    appends their score equations (parametric learners only), with the
    cross-derivative bread entries taken by central finite differences of
    the full pipeline.
    """
    return _system(*_prepare(data, models, curve, mode), float(delta))


def _system(ctx: _CurveContext, fd: _FiniteDifferences | None, delta: float) -> EstimatingSystem:
    """The estimating system at one delta over a curve's shared context;
    augmented when ``fd`` is given."""
    eta, bread = ctx.solve(delta)
    rule = ctx.quadrature(delta)
    gamma = ctx.gamma_eta(delta, eta, rule)
    contrast = _PSI_CONTRAST
    if fd is not None:
        p_extra = fd.packed.shape[0]
        bread_full = np.zeros((4 + p_extra, 4 + p_extra))
        bread_full[:4, :4] = bread

        def summed_gamma_at(end) -> np.ndarray:
            ctx_pt, score_sum = end
            return np.concatenate([ctx_pt.gamma_eta(delta, eta, rule).sum(axis=0), score_sum])

        for j, (step, hi, lo) in enumerate(fd.columns):
            bread_full[:, 4 + j] = (summed_gamma_at(hi) - summed_gamma_at(lo)) / (2.0 * step)
        eta, gamma, bread = np.concatenate([eta, fd.packed]), np.hstack([gamma, fd.scores]), bread_full
        contrast = np.concatenate([_PSI_CONTRAST, np.zeros(p_extra)])
    return EstimatingSystem(eta=eta, gamma=gamma, bread=bread, contrast=contrast)


def sandwich_variance(
    data: TwoPeriodDataset,
    models: NuisanceModelSet,
    curve: EffectCurveEstimate,
    delta: float,
    mode: str = "base",
) -> float:
    """Sandwich variance of psi-hat at one delta."""
    return float(_variances([_prepare(data, models, curve, mode)], [float(delta)])[0])


def sandwich_bands(
    data: TwoPeriodDataset,
    models: NuisanceModelSet,
    curve: EffectCurveEstimate,
    mode: str = "base",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """95% pointwise normal-approximation bands along the curve's grid."""
    variances = _variances([_prepare(data, models, curve, mode)], curve.grid)
    half = Z_95 * np.sqrt(variances)
    return curve.psi - half, curve.psi + half, variances


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
    return _variances([(_CurveContext(*period), None) for period in systems], grid)


def _variances(periods: list[tuple[_CurveContext, _FiniteDifferences | None]], grid) -> np.ndarray:
    """The squared norm, at each delta of ``grid``, of the mean over
    ``periods`` of their influence columns; each period's bread must be
    invertible."""
    out = np.empty(len(grid))
    for k, delta in enumerate(grid):
        delta = float(delta)
        columns = []
        for ctx, fd in periods:
            system = _system(ctx, fd, delta)
            if not system.bread_invertible:
                raise EstimationError(f"singular bread matrix at delta={delta}")
            columns.append(system.influence())
        iota = sum(columns) / len(columns)
        out[k] = iota @ iota
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
    fit's IRLS stopped at its iteration limit.
    """

    b_requested: int
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    seed: int
    curves: np.ndarray  # (B_success, K)
    failures: dict[str, int] = field(default_factory=dict)
    pi_a_unconverged: int = 0

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
    chunk at a time, as an (R, n) stack of rows with R n at most
    ``_STACK_BLOCK``. ``replicate`` maps such a stack to M estimates with
    (R, K) psi, and one (n,) weight row to M estimates with (K,) psi, each
    row of the first being the second. A replicate fails when
    ``replicate`` raises a DoseDidError on it, such as the
    DataValidationError of a dataset given weights that are not finite and
    nonnegative: a chunk that raises is rerun one row at a time, so the
    failed replicates, counted by error class, are skipped alone. Result m
    holds the survivors' psi rows of estimate m and their 2.5% and 97.5%
    percentiles, and counts the survivors in which any estimate's pi_a
    IRLS stopped at its iteration limit.

    Raises EstimationError when ``b_replicates < 2`` or every replicate
    fails.
    """
    if b_replicates < 2:
        raise EstimationError("bootstrap needs at least 2 replicates")
    if weight_fn is None:
        weight_fn = lambda b: bootstrap_weights(a, seed, b)  # noqa: E731
    chunk = max(1, _STACK_BLOCK // max(1, np.shape(a)[0]))

    parts = []  # (psi of shape (rows, M, K), pi_a stuck flags (rows,)) per chunk or row
    failures: Counter = Counter()
    for start in range(0, b_replicates, chunk):
        stack = np.stack([weight_fn(b) for b in range(start, min(start + chunk, b_replicates))])
        try:
            parts.append(_replicate_rows(replicate(stack)))
        except DoseDidError:
            for weight in stack:
                try:
                    parts.append(_replicate_rows(replicate(weight)))
                except DoseDidError as err:
                    failures[type(err).__name__] += 1
    if not parts:
        raise EstimationError("every bootstrap replicate failed")
    psi = np.concatenate([p for p, _ in parts])
    stuck = int(sum(np.count_nonzero(flags) for _, flags in parts))
    results = []
    for m in range(psi.shape[1]):
        curves = np.ascontiguousarray(psi[:, m])
        lo, hi = np.percentile(curves, [2.5, 97.5], axis=0)
        results.append(BootstrapResult(b_replicates, lo, hi, seed, curves, dict(failures), stuck))
    return results


def _replicate_rows(estimates: list[EffectCurveEstimate]) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, M, K) psi of M estimates, stacked or not, and the (rows,)
    flags of the replicates in which some pi_a IRLS stopped at max_iter."""
    psi = np.stack([np.atleast_2d(e.psi) for e in estimates], axis=1)
    stuck = np.zeros(psi.shape[0], dtype=bool)
    for estimate in estimates:
        converged = estimate.diagnostics.get("pi_a_converged")
        if converged is not None:
            stuck |= ~np.atleast_1d(converged)
    return psi, stuck


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
