"""The exact marginals that the node-capped path approximates.

Below ``nuisance._MARGINAL_NODE_CAP`` treated units the estimator tabulates
f on the union of the dose grid and every treated dose; above it, on the
grid plus a fixed number of evenly spaced doses. ``exact_models`` rebuilds a
model set's marginals on the full union, with f from the dense per-node
mixture: for each node, the weighted mean over treated units of
pi_d(node | X_i). That costs O(n_t^2), which is what the cap removes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from dosedid.nuisance import DENSITY_FLOOR, NuisanceModelSet, TabulatedCurve

_NODE_BLOCK = 256


def dense_f(models: NuisanceModelSet, nodes: np.ndarray) -> np.ndarray:
    """f at each node: the treated-weighted mean of the floored pi_d(node | X_i)."""
    data = models.data
    x_t = data.x_treated
    wt = np.ones(data.n_treated) if models.sample_weight is None else data.split(models.sample_weight)[0]
    wt = wt / np.sum(wt)
    pi_d = models.pi_d
    mu = pi_d.mean(x_t)
    s = pi_d.sdev(x_t)
    out = np.empty(nodes.shape[0])
    for start in range(0, nodes.shape[0], _NODE_BLOCK):
        block = nodes[start : start + _NODE_BLOCK]
        dens = np.interp((block[:, None] - mu[None, :]) / s[None, :], pi_d.table_x, pi_d.table_y) / s[None, :]
        out[start : start + _NODE_BLOCK] = np.maximum(dens, DENSITY_FLOOR) @ wt
    return out


def exact_models(models: NuisanceModelSet, grid: np.ndarray) -> NuisanceModelSet:
    """``models`` with both marginals on the union of ``grid`` and every
    treated dose: f tabulated by ``dense_f``, m the same closed form."""
    nodes = np.union1d(np.asarray(grid, dtype=float), models.data.dose)
    f_curve = TabulatedCurve(x=nodes, y=dense_f(models, nodes))
    return replace(
        models,
        m_marginal=replace(models.m_marginal, x=nodes),
        f_marginal=f_curve,
        dose_nodes=nodes,
    )
