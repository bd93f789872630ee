"""Closed-form reference effect curve of the study data-generating process.

Nothing here imports dosedid. The coefficients below are the study DGP's
printed formulas (``dosedid.simulation``: ``_treatment_probability``,
``treated_trend_mean`` and ``control_trend_mean``), copied so that the
benchmark's checks share no code with the program they check.

Covariates X ~ N(0, I_4); treatment P(A=1 | X) = expit(B0 + B.X). The treated
minus control expected trend at dose d is linear in X,

    tau(X, d) = 6 + 0.04 d - 0.003 d^3 + (1.6 - 0.1 d) X1 - 0.1 X2
                + (0.3 + 0.1 d) X3 + 0.3 X4,

so the estimand psi(d) = E[tau(X, d) | A=1] needs only E[X | A=1]. By Stein's
lemma E[X p(X)] = B E[expit'(B0 + B.X)], and B.X ~ N(0, |B|^2), so

    E[X | A=1] = B E[expit'(B0 + |B| Z)] / E[expit(B0 + |B| Z)],  Z ~ N(0, 1),

two one-dimensional Gaussian integrals done by Gauss-Hermite quadrature.
"""

from __future__ import annotations

import numpy as np

# P(A=1 | X) = expit(PROPENSITY_INTERCEPT + X @ PROPENSITY_SLOPES)
PROPENSITY_INTERCEPT = -0.1
PROPENSITY_SLOPES = np.array([0.05, 0.05, -0.05, 0.15])
# tau(X, d) = TAU_BASE + X @ (TAU_X + d TAU_XD) + 0.04 d - 0.003 d^3
TAU_BASE = 6.0
TAU_X = np.array([1.6, -0.1, 0.3, 0.3])
TAU_XD = np.array([-0.1, 0.0, 0.1, 0.0])

# 60 nodes integrate the smooth logistic against N(0, |B|^2) (|B| ~ 0.18)
# to machine precision.
_HERMITE_NODES = 60


def _expit(z):
    return 1.0 / (1.0 + np.exp(-z))


def _propensity_moments() -> tuple[float, float]:
    """E[expit(B0 + |B| Z)] and E[expit'(B0 + |B| Z)] by Gauss-Hermite."""
    z, w = np.polynomial.hermite_e.hermegauss(_HERMITE_NODES)
    w = w / np.sqrt(2.0 * np.pi)
    scale = float(np.linalg.norm(PROPENSITY_SLOPES))
    p = _expit(PROPENSITY_INTERCEPT + scale * z)
    return float(np.sum(w * p)), float(np.sum(w * p * (1.0 - p)))


def treated_share() -> float:
    """P(A=1)."""
    return _propensity_moments()[0]


def treated_covariate_mean() -> np.ndarray:
    """E[X | A=1] by Stein's lemma and Gauss-Hermite quadrature."""
    p_mean, dp_mean = _propensity_moments()
    return PROPENSITY_SLOPES * dp_mean / p_mean


def psi(grid) -> np.ndarray:
    """The true effect curve psi(delta) at each grid point."""
    d = np.asarray(grid, dtype=float)
    m = treated_covariate_mean()
    return TAU_BASE + 0.04 * d - 0.003 * d**3 + m @ TAU_X + d * (m @ TAU_XD)


def psi_second_derivative(grid) -> np.ndarray:
    """psi''(delta); only the cubic dose term curves."""
    return -0.018 * np.asarray(grid, dtype=float)


def weighted_draw(grid, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo psi from a covariate draw weighted exactly by p(X), with
    the standard error of each weighted mean (delta method for a ratio)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    p = _expit(PROPENSITY_INTERCEPT + x @ PROPENSITY_SLOPES)
    d = np.asarray(grid, dtype=float)
    tau = TAU_BASE + (x @ TAU_X)[:, None] + np.outer(x @ TAU_XD, d) + 0.04 * d - 0.003 * d**3
    p_mean = float(np.mean(p))
    est = (p @ tau) / (n * p_mean)
    # Linearised ratio: the influence of unit i is p_i (tau_i - est) / E[p].
    infl = p[:, None] * (tau - est[None, :]) / p_mean
    se = infl.std(axis=0, ddof=1) / np.sqrt(n)
    return est, se
