"""Treated marginals: the closed-form m, the node rule for f, and the
node-capped path against the exact O(n_t^2) reference (docs/DECISIONS.md, D3)."""

import numpy as np
import pytest

from dosedid import nuisance
from dosedid.curves import estimate_curve
from dosedid.data import TwoPeriodDataset
from dosedid.inference import bootstrap_weights, sandwich_bands
from dosedid.nuisance import default_dose_grid, default_specs, fit_nuisances, marginalize
from dosedid.simulation import generate_scenario_data, stream_seed

from marginal_reference import dense_f, exact_models

SPECS = default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))


def _subset(n_treated, seed):
    data = generate_scenario_data(3 * n_treated, stream_seed(500, seed, 0))
    idx = np.concatenate([np.nonzero(data.a)[0][:n_treated], np.nonzero(~data.a)[0][:20]])
    return TwoPeriodDataset.from_arrays(
        x=data.x[idx], a=data.a[idx], dose=data.dose[:n_treated], y0=data.y0[idx], y1=data.y1[idx]
    )


def test_closed_form_m_matches_loop_mean_off_the_nodes():
    data = _subset(50, 0)
    models = fit_nuisances(data, SPECS, which=("pi_d", "mu1"), dose_grid=default_dose_grid(data.dose, size=9))
    nodes = models.dose_nodes
    off_nodes = 0.5 * (nodes[:-1] + nodes[1:])
    x_t = data.x_treated
    for sw in (None, bootstrap_weights(data.a, 4, 0)):
        m_curve, _ = marginalize(models.mu1, None, data, nodes, sw)
        w = np.ones(50) if sw is None else sw[data.a]
        for d0 in off_nodes:
            loop = np.average([float(models.mu1(d0, x_t[i][None, :])[0]) for i in range(50)], weights=w)
            assert abs(m_curve(d0) - loop) < 1e-12
    # outside the node range m clamps to its endpoint, as f does
    assert m_curve(nodes[-1] + 3.0) == m_curve(nodes[-1])
    assert bool(m_curve.out_of_range(nodes[0] - 1e-9))


def test_node_set_rule_and_fixed_point(monkeypatch):
    monkeypatch.setattr(nuisance, "_MARGINAL_NODE_CAP", 8)
    grid = np.linspace(1.0, 2.0, 5)
    rng = np.random.default_rng(7)
    few = rng.uniform(0.0, 3.0, 8)
    np.testing.assert_array_equal(nuisance._node_set(grid, few), np.union1d(grid, few))
    many = rng.uniform(0.0, 3.0, 9)
    thinned = nuisance._node_set(grid, many)
    expected = np.union1d(grid, np.linspace(many.min(), many.max(), 8))
    np.testing.assert_array_equal(thinned, expected)
    assert thinned.shape[0] == 8 + grid.shape[0]
    for doses in (few, many):
        nodes = nuisance._node_set(grid, doses)
        np.testing.assert_array_equal(nuisance._node_set(nodes, doses), nodes)


def test_thinned_path_at_small_cap(monkeypatch):
    """Above the cap f is interpolated between evenly spaced nodes; at the
    grid nodes it is still the exact mixture, and psi stays close to the
    exact path's."""
    monkeypatch.setattr(nuisance, "_MARGINAL_NODE_CAP", 128)
    data = generate_scenario_data(600, stream_seed(306, 2, 0))
    grid = default_dose_grid(data.dose)
    models = fit_nuisances(data, SPECS, dose_grid=grid)
    assert data.n_treated > 128
    assert models.dose_nodes.shape[0] == 128 + grid.shape[0]
    np.testing.assert_allclose(models.f_marginal(grid), dense_f(models, grid), rtol=0, atol=1e-12)
    exact = exact_models(models, grid)
    curve = estimate_curve(data, "MR", grid=grid, models=models)
    ref = estimate_curve(data, "MR", grid=grid, models=exact)
    assert curve.bandwidth == ref.bandwidth
    assert np.max(np.abs(curve.psi - ref.psi)) <= 1e-3 * np.std(ref.psi)
    assert np.all(np.isfinite(sandwich_bands(data, models, curve)[2]))


def test_exact_path_below_the_cap():
    """At or below the cap the nodes are the grid and every treated dose,
    and f equals the dense reference there."""
    data = generate_scenario_data(600, stream_seed(306, 3, 0))
    grid = default_dose_grid(data.dose)
    models = fit_nuisances(data, SPECS, dose_grid=grid)
    np.testing.assert_array_equal(models.dose_nodes, np.union1d(grid, data.dose))
    nodes = models.dose_nodes
    np.testing.assert_allclose(models.f_marginal(nodes), dense_f(models, nodes), rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def large():
    data = generate_scenario_data(20_000, stream_seed(305, 20_000, 0))
    grid = default_dose_grid(data.dose)
    models = fit_nuisances(data, SPECS, dose_grid=grid)
    return data, grid, models, exact_models(models, grid)


def test_capped_psi_within_tolerance_at_20k(large):
    data, grid, models, exact = large
    assert data.n_treated > nuisance._MARGINAL_NODE_CAP
    assert models.dose_nodes.shape[0] <= nuisance._MARGINAL_NODE_CAP + grid.shape[0]
    curve = estimate_curve(data, "MR", grid=grid, models=models)
    ref = estimate_curve(data, "MR", grid=grid, models=exact)
    assert curve.bandwidth == ref.bandwidth
    assert np.max(np.abs(curve.psi - ref.psi)) <= 1e-6 * np.std(ref.psi)


def test_capped_sandwich_within_tolerance_at_20k(large):
    data, grid, models, exact = large
    curve = estimate_curve(data, "MR", grid=grid, models=models)
    ref = estimate_curve(data, "MR", grid=grid, models=exact, bandwidth=curve.bandwidth)
    var = sandwich_bands(data, models, curve)[2]
    var_ref = sandwich_bands(data, exact, ref)[2]
    assert np.max(np.abs(var - var_ref) / var_ref) <= 1e-4


def test_capped_psi_within_tolerance_at_20k_bootstrap_weights(large):
    data, grid, _, _ = large
    w = bootstrap_weights(data.a, 7, 0)
    models = fit_nuisances(data, SPECS, dose_grid=grid, sample_weight=w)
    curve = estimate_curve(data, "MR", grid=grid, models=models, sample_weight=w)
    ref = estimate_curve(data, "MR", grid=grid, models=exact_models(models, grid), sample_weight=w, bandwidth=curve.bandwidth)
    assert np.max(np.abs(curve.psi - ref.psi)) <= 1e-6 * np.std(ref.psi)
