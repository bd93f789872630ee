"""The explicit forms the sandwich reduces, and the one-sample smoother.

At each grid point the package reduces an estimating system to one per-unit
influence column and never forms the per-unit equation values Gamma
(n x P). ``system_at`` builds the system at one delta through the context
``sandwich_bands`` uses, and ``gamma``, ``meat`` and ``covariance`` write
out Gamma, Gamma' Gamma and bread^-1 meat bread^-T from its parts, so
tests can compare the reduced path against them. ``perturbed_ends`` and
``fd_columns`` rebuild the augmented mode's perturbed nuisance sets one
coordinate at a time, refitting pi_d and f for every one, the form its two
stacks reduce. ``local_linear_curve`` is the smoother on one sample, the
form the tests hold the pipeline's shared window to.
"""

from __future__ import annotations

import numpy as np

from dosedid import inference
from dosedid.numeric import WindowedMoments


def system_at(data, models, curve, delta, mode="base") -> inference.EstimatingSystem:
    """The estimating system of ``curve`` at one delta: base mode treats the
    nuisance fits as fixed, augmented mode appends their score equations
    with finite-difference bread columns."""
    return inference._system(*inference._prepare(data, models, curve, mode), float(delta))


def variance_at(data, models, curve, delta, mode="base") -> float:
    """The sandwich variance of psi-hat at one delta, as ``sandwich_bands``
    computes it at each grid point."""
    return float(inference._variances([inference._prepare(data, models, curve, mode)], [float(delta)])[0][0])


def perturbed_ends(ctx, models, block) -> list:
    """Per coordinate j, ``(step, up, down)``: up and down are ``(context,
    models, summed scores)`` at ``packed +- step e_j``, each set rebuilt
    alone with pi_d and f refit."""
    _, scores, _, rebuild = inference._augmented_blocks(ctx, models)
    ends = []
    for j, step in enumerate(block.steps):
        sides = []
        for sign in (1.0, -1.0):
            end = block.packed.copy()
            end[j] += sign * step
            rebuilt = rebuild(end, True)
            sides.append((inference._CurveContext(ctx.data, rebuilt, ctx.curve), rebuilt, scores(end).sum(axis=0)))
        ends.append((step, *sides))
    return ends


def fd_columns(ctx, ends, delta) -> np.ndarray:
    """The (4 + p, p) central-difference bread columns at delta from
    ``perturbed_ends``: each end's fixed column sums through its
    coefficients plus its kernel part, then its summed scores."""
    eta, _, span = ctx.solve(delta)
    rule = ctx.quadrature(delta)

    def summed(end):
        ctx_pt, _, score_sum = end
        out = ctx_pt.dense_sums @ ctx_pt.coefficients(rule, eta)
        out[:2] += ctx_pt.kernel(delta, eta, span)[1].sum(axis=0)
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
    contrast' bread^-1 meat bread^-T contrast is its squared norm."""
    return inference._influence([system])


def variance(system) -> float:
    iota = influence(system)
    return float(iota @ iota)


def local_linear_curve(dose, ys, grid, h, sample_weight=None):
    """Local linear intercepts of ``ys`` on ``dose`` at every grid point
    (per row, for stacked ``ys`` or weights; unit weights by default)."""
    weight = np.ones(np.shape(dose)) if sample_weight is None else sample_weight
    return WindowedMoments(dose, ys, weight).fit(grid, h)[0]
