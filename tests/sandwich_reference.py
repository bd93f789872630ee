"""The explicit forms the sandwich reduces, and the one-sample smoother.

The package solves every grid point of a curve in one pass over arrays
(``inference._variances``). ``system`` is the per-delta form it reduces:
the estimating system at one delta over the same context, from one
quadrature rule (``quadrature``), one window solve (``solve``), the
coefficient map, the kernel part and, in augmented mode, the stacked
finite-difference columns, each at that delta alone. ``variances`` takes
the squared norm of the periods' mean influence column one delta at a
time, and ``gamma``, ``meat`` and ``covariance`` write out Gamma (n x P),
Gamma' Gamma and bread^-1 meat bread^-T from a system's parts, so tests can
compare the reduced path against them. ``perturbed_ends`` and
``fd_columns`` rebuild the augmented mode's perturbed nuisance sets one
coordinate at a time, refitting pi_d and f for every one, the form its two
stacks reduce. ``local_linear_curve`` is the smoother on one sample, the
form the tests hold the pipeline's shared window to.

``FreshContext`` and ``FreshBlock`` form a curve's context and its
augmented block from scratch, as the package did before the model set
kept its weight parts and the curve its outcome terms (docs/DECISIONS.md,
D19): xi, theta00 and theta01 from the compute routines on the set
stripped of its weight records, pi_a(X) and mu0(X) evaluated again, the
context's own window and sorted copies, and one such context per stack of
perturbed sets. ``fresh`` pairs them as ``inference._prepare`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from dosedid import inference
from dosedid.errors import EstimationError
from dosedid.numeric import WindowedMoments
from dosedid.pseudo import compute_theta0, compute_xi_terms, normalize_weights


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


def quadrature(ctx, delta: float) -> tuple[int, np.ndarray]:
    """``(first, weights)``: a (4, m) matrix whose rows, applied to the
    values of any piecewise-linear f on the nodes ``first`` to ``first + m -
    1``, give the integrals over the node range of K(u) f(d) times 1, d, u
    and u d, with u = (d - delta) / h: 3-point Gauss-Legendre on each piece
    between the nodes and the window ends."""
    nodes, h = ctx.nodes, ctx.h
    lo = max(delta - h, float(nodes[0]))
    hi = min(delta + h, float(nodes[-1]))
    if not hi > lo:
        return 0, np.zeros((4, 1))
    first = min(int(np.searchsorted(nodes, lo, side="right")) - 1, nodes.shape[0] - 2)
    stop = int(np.searchsorted(nodes, hi, side="left"))
    breaks = np.concatenate([[lo], nodes[first + 1 : stop], [hi]])
    half = 0.5 * (breaks[1:] - breaks[:-1])
    # (3, pieces): piece p lies between nodes first + p and first + p + 1.
    d = 0.5 * (breaks[1:] + breaks[:-1]) + inference._GL_NODES[:, None] * half
    u = (d - delta) / h
    kw = 0.75 * (1.0 - u * u) * (inference._GL_WEIGHTS[:, None] * half)
    left = nodes[first:stop]
    t = (d - left) / (nodes[first + 1 : stop + 1] - left)
    ku = kw * u
    weights = np.zeros((4, stop - first + 1))
    for row, moment in enumerate((kw, kw * d, ku, ku * d)):
        upper = moment * t
        weights[row, :-1] = (moment - upper).sum(axis=0)
        weights[row, 1:] += upper.sum(axis=0)
    return first, weights


def moments_of_f(f_values, rule) -> np.ndarray:
    """``(a0, a1, b0, b1)`` of f tabulated as ``f_values`` under a rule."""
    first, weights = rule
    return weights @ f_values[first : first + weights.shape[1]]


def corrections(ctx, rule) -> tuple[np.ndarray, np.ndarray]:
    """Per-treated-unit quadrature terms (c0, c1) under a rule: the
    integrals of K(u) f(d) (mu1(d, X_i) - m(d)) and of the same times u."""
    a0, a1, b0, b1 = moments_of_f(ctx.f_values, rule)
    return ctx.alpha * a0 + ctx.phi * a1, ctx.alpha * b0 + ctx.phi * b1


def coefficients(ctx, rule, eta) -> np.ndarray:
    """The (6, 4) map from the fixed columns to the four equations' dense
    parts at eta, with the corrections under ``rule``."""
    return inference._coefficients(moments_of_f(ctx.f_values, rule), eta)


def solve(ctx, delta: float):
    """eta at delta, the analytic Jacobian of the summed base equations in
    eta, and the kernel window's span ``(first, stop)``, from the window's
    moments at delta alone."""
    moments = ctx.window.moments([delta], ctx.h)
    (theta,), (beta,) = ctx.window.solve([delta], ctx.h, moments)
    s0, s1, s2, _, _, (first,), (stop,) = moments
    s0, s1, s2 = (float(m[0]) / ctx.p_hat for m in (s0, s1, s2))
    bread = np.diag([-s0, -s2, -float(np.sum(ctx.wc)), -float(np.sum(ctx.wt))])
    bread[0, 1] = bread[1, 0] = -s1
    return np.array([theta, beta, ctx.theta00, ctx.theta01]), bread, (int(first), int(stop))


def kernel(ctx, delta: float, eta, span):
    """The unit positions of the dose-sorted treated units in ``span`` and
    their (w, 2) kernel parts wt K(u) (xi - theta - u beta) / p times 1 and
    u."""
    u, lead = ctx.kernel_terms(delta, eta, span, ctx.xi_sorted[:, None])
    return ctx.units_sorted[span[0] : span[1]], np.hstack([lead, lead * u])


def block_fd_columns(block, ctx, delta: float, eta, rule, span) -> np.ndarray:
    """The (4 + p, p) central-difference bread columns of ``block``'s two
    stacks at one delta."""
    first, weights = rule
    moments = np.matmul(weights, block.f_values[:, first : first + weights.shape[1], None])[block.f_row, :, 0]
    summed = np.matmul(block.dense_sums[:, None, :], inference._coefficients(moments, eta))[:, 0]
    u, lead = ctx.kernel_terms(delta, eta, span, block.xi_sorted)
    summed[:, 0] += lead.sum(axis=0)
    summed[:, 1] += (lead * u).sum(axis=0)
    ends = np.hstack([summed, block.score_sums])
    p = block.packed.shape[0]
    return ((ends[:p] - ends[p:]) / (2.0 * block.steps)[:, None]).T


def system(ctx, block, delta: float) -> EstimatingSystem:
    """The estimating system at one delta over a curve's shared context,
    with the block's nuisance equations appended."""
    eta, bread, span = solve(ctx, delta)
    rule = quadrature(ctx, delta)
    p = block.packed.shape[0]
    bread_full = np.zeros((4 + p, 4 + p))
    bread_full[:4, :4] = bread
    if p:
        bread_full[:, 4:] = block_fd_columns(block, ctx, delta, eta, rule, span)
    coef = np.zeros((6 + p, 4 + p))
    coef[:6, :4] = coefficients(ctx, rule, eta)
    coef[6:, 4:] = np.eye(p)
    units, kern = kernel(ctx, delta, eta, span)
    return EstimatingSystem(
        eta=np.concatenate([eta, block.packed]),
        bread=bread_full,
        contrast=np.concatenate([inference._PSI_CONTRAST, np.zeros(p)]),
        dense=block.dense,
        coefficients=coef,
        kernel_units=units,
        kernel=kern,
    )


def system_at(data, models, curve, delta, mode="base") -> EstimatingSystem:
    """The estimating system of ``curve`` at one delta: base mode treats the
    nuisance fits as fixed, augmented mode appends their score equations
    with finite-difference bread columns."""
    return system(*inference._prepare(data, models, curve, mode), float(delta))


def variances(periods, grid) -> tuple[np.ndarray, float]:
    """``inference._variances`` one delta at a time: the squared norm of the
    mean over ``periods`` of their influence columns, each period's system
    built at that delta alone, and the largest condition number of a
    bread."""
    out = np.empty(len(grid))
    cond_max = 0.0
    for k, delta in enumerate(grid):
        systems = [system(ctx, block, float(delta)) for ctx, block in periods]
        for one in systems:
            if not one.bread_invertible:
                raise EstimationError(f"singular bread matrix at delta={float(delta)}")
            cond_max = max(cond_max, one.condition)
        iota = sum(influence(one) for one in systems) / len(systems)
        out[k] = iota @ iota
    return out, cond_max


def variance_at(data, models, curve, delta, mode="base") -> float:
    """The sandwich variance of psi-hat at one delta, as ``sandwich_bands``
    computes it at each grid point."""
    return float(inference._variances([inference._prepare(data, models, curve, mode)], [float(delta)])[0][0])


def perturbed_ends(ctx, models, block) -> list:
    """Per coordinate j, ``(step, up, down)``: up and down are ``(context,
    models, summed scores)`` at ``packed +- step e_j``, each set rebuilt
    alone with pi_d and f refit and its context formed from scratch."""
    _, scores, _, rebuild = inference._augmented_blocks(ctx, models)
    ends = []
    for j, step in enumerate(block.steps):
        sides = []
        for sign in (1.0, -1.0):
            end = block.packed.copy()
            end[j] += sign * step
            rebuilt = rebuild(end, True)
            sides.append((FreshContext(ctx.data, rebuilt, ctx.curve), rebuilt, scores(end).sum(axis=0)))
        ends.append((step, *sides))
    return ends


def fd_columns(ctx, ends, delta) -> np.ndarray:
    """The (4 + p, p) central-difference bread columns at delta from
    ``perturbed_ends``: each end's fixed column sums through its
    coefficients plus its kernel part, then its summed scores."""
    eta, _, span = solve(ctx, delta)
    rule = quadrature(ctx, delta)

    def summed(end):
        ctx_pt, _, score_sum = end
        out = ctx_pt.dense_sums @ coefficients(ctx_pt, rule, eta)
        out[:2] += kernel(ctx_pt, delta, eta, span)[1].sum(axis=0)
        return np.concatenate([out, score_sum])

    return np.column_stack([(summed(up) - summed(down)) / (2.0 * step) for step, up, down in ends])


def gamma(system) -> np.ndarray:
    """The (n, P) per-unit equation values: the dense part plus the kernel
    part on the kernel window's units."""
    out = system.dense @ system.coefficients
    out[system.kernel_units, :2] += system.kernel
    return out


def meat(system) -> np.ndarray:
    g = gamma(system)
    return g.T @ g


def covariance(system) -> np.ndarray:
    binv = np.linalg.inv(system.bread)
    return binv @ meat(system) @ binv.T


def influence(system) -> np.ndarray:
    """The per-unit influence column Gamma solve(bread^T, contrast):
    contrast' bread^-1 meat bread^-T contrast is its squared norm. With v =
    solve(bread^T, contrast) it is ``dense @ (coefficients @ v)`` plus
    ``kernel @ v[:2]`` on the kernel units."""
    v = np.linalg.solve(system.bread.T, system.contrast)
    column = system.dense @ (system.coefficients @ v)
    column[system.kernel_units] += system.kernel @ v[:2]
    return column


def variance(system) -> float:
    iota = influence(system)
    return float(iota @ iota)


def local_linear_curve(dose, ys, grid, h, sample_weight=None):
    """Local linear intercepts of ``ys`` on ``dose`` at every grid point
    (per row, for stacked ``ys`` or weights; unit weights by default)."""
    weight = np.ones(np.shape(dose)) if sample_weight is None else sample_weight
    return WindowedMoments(dose, ys, weight).fit(grid, h)[0]


class FreshContext(inference._CurveContext):
    """A curve's sandwich context formed from scratch (see the module
    docstring); every method is the package's."""

    def __init__(self, data, models, curve):
        bare = replace(models, dose_weights=None, control_weights=None)
        self.data = data
        self.curve = curve
        self.h = float(curve.bandwidth)
        self.wt, self.wc = data.weight_treated, data.weight_control
        self.p_hat = float(np.sum(self.wt) / np.sum(data.weight))

        self.xi, _ = compute_xi_terms(data, bare, "clamp")
        self.theta00, self.theta01, _ = compute_theta0(data, bare)
        _, pa_c = data.split(models.pi_a(data.x))
        raw_w0 = pa_c / (1.0 - pa_c)

        self.nodes = models.dose_nodes
        self.f_values = models.f_marginal.y
        level, slope = models.mu1.unit_terms(data.x_treated)
        self.alpha = level - np.asarray(models.m_marginal.level)[..., None]
        self.phi = slope - np.asarray(models.m_marginal.slope)[..., None]

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
        self.dense = np.swapaxes(columns, -1, -2)
        self.dense_sums = columns.sum(axis=-1)

        self.window = WindowedMoments(data.dose, self.xi, self.wt)
        order = np.argsort(data.dose, kind="stable")
        self.units_sorted = np.flatnonzero(treated)[order]
        self.dose_sorted = data.dose[order]
        self.xi_sorted = self.xi[..., order]
        self.wt_sorted = self.wt[order]


class FreshBlock(inference._NuisanceBlock):
    """The augmented block with every stack of perturbed sets reduced
    through a ``FreshContext``; ``fd_columns`` is the package's."""

    def __init__(self, ctx, models):
        packed, scores, score_sums, rebuild = inference._augmented_blocks(ctx, models)
        p = packed.shape[0]
        self.packed = packed
        self.dense = np.asfortranarray(np.hstack([ctx.dense, scores(packed)]))
        self.steps = inference._FD_STEP * np.maximum(1.0, np.abs(packed))
        ends = np.concatenate([packed + np.diag(self.steps), packed - np.diag(self.steps)])
        self.dense_sums = np.empty((2 * p, 6))
        self.score_sums = np.empty((2 * p, p))
        self.xi_sorted = np.empty((ctx.xi_sorted.shape[0], 2 * p))
        self.f_row = np.zeros(2 * p, dtype=np.intp)
        f_values = [ctx.f_values]
        moves_pi_d = np.arange(2 * p) % p < models.pi_d.mean_coef.shape[0] + models.pi_d.resid_coef.shape[0]
        cap = max(1, inference._STACK_BLOCK // ctx.data.n)
        for refit in (True, False):
            rows = np.flatnonzero(moves_pi_d == refit)
            for chunk in np.array_split(rows, -(-rows.shape[0] // cap)):
                stack = FreshContext(ctx.data, rebuild(ends[chunk], refit), ctx.curve)
                self.dense_sums[chunk] = stack.dense_sums
                self.score_sums[chunk] = score_sums(ends[chunk])
                self.xi_sorted[:, chunk] = stack.xi_sorted.T
                if refit:
                    self.f_row[chunk] = len(f_values) + np.arange(chunk.shape[0])
                    f_values.extend(stack.f_values)
        self.f_values = np.array(f_values)


def fresh(data, models, curve, mode="base"):
    """``(context, block)`` of ``curve`` formed from scratch: the empty
    block in base mode, a ``FreshBlock`` in augmented mode."""
    ctx = FreshContext(data, models, curve)
    if mode == "base":
        return ctx, inference._NuisanceBlock(ctx, None)
    return ctx, FreshBlock(ctx, models)
