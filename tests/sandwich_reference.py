"""The explicit forms the sandwich reduces, and the one-sample smoother.

At each grid point the package reduces an estimating system to one per-unit
influence column and never forms the per-unit equation values Gamma
(n x P). ``system_at`` builds the system at one delta through the context
``sandwich_bands`` uses, and ``gamma``, ``meat`` and ``covariance`` write
out Gamma, Gamma' Gamma and bread^-1 meat bread^-T from its parts, so
tests can compare the reduced path against them. ``local_linear_curve`` is
the smoother on one sample, the form the tests hold the pipeline's shared
window to.
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
