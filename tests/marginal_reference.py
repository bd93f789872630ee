"""The exact marginals that the binned path approximates.

The estimator tabulates pi_d's residual kernel density by linear binning
and f as a mixture binned over the units' (mean, sdev), both convolved by
FFT, on evenly spaced nodes, and floors f's tabulated values once.
``exact_models`` rebuilds a model set, fit on the dataset passed with it,
with pi_d's table evaluated directly by ``DensityEstimate`` and both
marginals on the union of the grid and every treated dose, with f from the
dense per-node mixture: for each node, the weighted mean over treated units
of pi_d(node | X_i) before its floor, floored once as the estimator's f is.
That costs O(n_t^2), which is what the binning removes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from dosedid.data import TwoPeriodDataset
from dosedid.nuisance import DENSITY_FLOOR, DoseDensityModel, DoseTrendModel, NuisanceModelSet, TabulatedCurve
from dosedid.numeric import gaussian_kde, silverman_bandwidth

_NODE_BLOCK = 256


def direct_pi_d(data: TwoPeriodDataset, models: NuisanceModelSet) -> DoseDensityModel:
    """``models.pi_d``, fit on ``data``, with its table evaluated by
    ``DensityEstimate.__call__`` at the same points."""
    pi_d = models.pi_d
    x_t = data.x_treated
    wt = data.weight_treated
    mu, s = pi_d.location_scale(x_t)
    resid = (data.dose - mu) / s
    bw = pi_d.bandwidth_spec if pi_d.bandwidth_spec is not None else silverman_bandwidth(resid, wt)
    return replace(pi_d, table_y=gaussian_kde(resid, bw, wt)(pi_d.table_x))


def dense_f(
    data: TwoPeriodDataset, models: NuisanceModelSet, nodes: np.ndarray, pi_d: DoseDensityModel | None = None
) -> np.ndarray:
    """f at each node: the mean over ``data``'s treated units, weighted, of
    the unfloored pi_d(node | X_i), under ``pi_d`` (default ``models.pi_d``)."""
    x_t = data.x_treated
    wt = data.weight_treated / np.sum(data.weight_treated)
    pi_d = models.pi_d if pi_d is None else pi_d
    mu, s = pi_d.location_scale(x_t)
    out = np.empty(nodes.shape[0])
    for start in range(0, nodes.shape[0], _NODE_BLOCK):
        block = nodes[start : start + _NODE_BLOCK]
        dens = np.interp((block[:, None] - mu[None, :]) / s[None, :], pi_d.table_x, pi_d.table_y) / s[None, :]
        out[start : start + _NODE_BLOCK] = dens @ wt
    return out


def predict_matrix(mu1: DoseTrendModel, nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(n_units, n_nodes) values of mu1(node, x_i): each unit's level and
    dose slope beside the shared dose profile, by block linearity."""
    nodes = np.asarray(nodes, dtype=float)
    level, slope = mu1.unit_terms(x)
    return level[:, None] + mu1.profile(nodes, 0.0, 0.0)[None, :] + np.outer(slope, nodes)


def exact_models(data: TwoPeriodDataset, models: NuisanceModelSet, grid: np.ndarray) -> NuisanceModelSet:
    """``models``, fit on ``data``, with pi_d's directly evaluated table and
    both marginals on the union of ``grid`` and every treated dose: f the
    dense mixture ``dense_f`` floored once at DENSITY_FLOOR, m the same
    closed form."""
    nodes = np.union1d(np.asarray(grid, dtype=float), data.dose)
    pi_d = direct_pi_d(data, models)
    return replace(
        models,
        pi_d=pi_d,
        m_marginal=replace(models.m_marginal, x=nodes),
        f_marginal=TabulatedCurve(x=nodes, y=np.maximum(dense_f(data, models, nodes, pi_d), DENSITY_FLOOR)),
    )
