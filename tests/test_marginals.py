"""Treated marginals: the closed-form m, the node rule for f, the binned KDE
table and binned f against their exact O(n_t^2) references, and psi and the
sandwich against the exact path (docs/DECISIONS.md, D3 and D4)."""

from dataclasses import replace

import numpy as np
import pytest

from dosedid import nuisance, numeric
from dosedid.curves import estimate_curve
from dosedid.data import TwoPeriodDataset
from dosedid.inference import bootstrap_weights, sandwich_bands
from dosedid.nuisance import DENSITY_FLOOR, default_dose_grid, default_specs, fit_nuisances, marginalize
from dosedid.numeric import gaussian_kde
from dosedid.simulation import generate_scenario_data, stream_seed

from marginal_reference import dense_f, exact_models

SPECS = default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))


def _subset(n_treated, seed):
    data = generate_scenario_data(3 * n_treated, stream_seed(500, seed, 0))
    idx = np.concatenate([np.nonzero(data.a)[0][:n_treated], np.nonzero(~data.a)[0][:20]])
    return TwoPeriodDataset.from_arrays(
        x=data.x[idx], a=data.a[idx], dose=data.dose[:n_treated], y0=data.y0[idx], y1=data.y1[idx]
    )


def _weighted(data, sample_weight):
    return data if sample_weight is None else replace(data, weight=sample_weight)


def _psi_gap(data, grid, sample_weight=None):
    """max |psi - psi_exact| / sd(psi_exact), and whether LOO picked the
    same bandwidth on both paths."""
    data = _weighted(data, sample_weight)
    models = fit_nuisances(data, SPECS, dose_grid=grid)
    curve = estimate_curve(data, "MR", grid=grid, models=models)
    ref = estimate_curve(data, "MR", grid=grid, models=exact_models(data, models, grid))
    return np.max(np.abs(curve.psi - ref.psi)) / np.std(ref.psi), curve.bandwidth == ref.bandwidth


def test_closed_form_m_matches_loop_mean_off_the_nodes():
    data = _subset(50, 0)
    models = fit_nuisances(data, SPECS, which=("pi_d", "mu1"), dose_grid=default_dose_grid(data.dose, size=9))
    nodes = models.dose_nodes
    off_nodes = 0.5 * (nodes[:-1] + nodes[1:])
    x_t = data.x_treated
    for sw in (None, bootstrap_weights(data.a, 4, 0)):
        m_curve, _ = marginalize(models.mu1, None, _weighted(data, sw), nodes)
        w = np.ones(50) if sw is None else sw[data.a]
        for d0 in off_nodes[::40]:
            loop = np.average([float(models.mu1(d0, x_t[i][None, :])[0]) for i in range(50)], weights=w)
            assert abs(m_curve(d0) - loop) < 1e-12
    # outside the node range m clamps to its endpoint, as f does
    assert m_curve(nodes[-1] + 3.0) == m_curve(nodes[-1])
    assert bool(m_curve.out_of_range(nodes[0] - 1e-9))


def test_node_set_rule_and_fixed_point():
    """The nodes are _MARGINAL_NODES evenly spaced doses over the range of
    the grid and the doses together, at any n, and a node set is its own
    node set."""
    grid = np.linspace(1.0, 2.0, 5)
    rng = np.random.default_rng(7)
    for doses in (rng.uniform(0.0, 3.0, 8), rng.uniform(1.2, 1.8, 9_000)):
        nodes = nuisance._node_set(grid, doses)
        lo, hi = min(1.0, doses.min()), max(2.0, doses.max())
        np.testing.assert_array_equal(nodes, np.linspace(lo, hi, nuisance._MARGINAL_NODES))
        np.testing.assert_array_equal(nuisance._node_set(nodes, doses), nodes)


def test_binned_kde_table_matches_direct():
    """The binned table of pi_d's residual density equals DensityEstimate's
    direct kernel sums within 1e-5 of its peak, unweighted and weighted."""
    data = generate_scenario_data(2_000, stream_seed(306, 4, 0))
    for sw in (None, bootstrap_weights(data.a, 5, 0)):
        pi_d = fit_nuisances(_weighted(data, sw), SPECS, which=("pi_d",)).pi_d
        x_t = data.x_treated
        wt = None if sw is None else sw[data.a]
        mu, s = pi_d.location_scale(x_t)
        resid = (data.dose - mu) / s
        direct = gaussian_kde(resid, sample_weight=wt)(pi_d.table_x)
        assert np.max(np.abs(pi_d.table_y - direct)) <= 1e-5 * np.max(direct)


def test_f_integrates_to_one():
    """The binned mixture of the unfloored pi_d, over nodes reaching well
    past the doses, integrates to one within 1e-4."""
    data = generate_scenario_data(2_000, stream_seed(306, 5, 0))
    for sw in (None, bootstrap_weights(data.a, 6, 0)):
        pi_d = fit_nuisances(_weighted(data, sw), SPECS, which=("pi_d",)).pi_d
        wt = None if sw is None else sw[data.a]
        nodes = np.linspace(data.dose.min() - 25.0, data.dose.max() + 25.0, nuisance._MARGINAL_NODES)
        f = pi_d.marginal_density(nodes, data.x_treated, wt)
        assert abs(np.trapezoid(f, nodes) - 1.0) <= 1e-4


def test_f_within_tolerance_of_dense_mixture():
    """At its nodes f is the dense mixture of the unfloored pi_d, floored
    once, to 1e-6 of its peak, unweighted and weighted; its values are never
    below DENSITY_FLOOR."""
    data = generate_scenario_data(600, stream_seed(306, 3, 0))
    grid = default_dose_grid(data.dose)
    for sw in (None, bootstrap_weights(data.a, 3, 0)):
        models = fit_nuisances(_weighted(data, sw), SPECS, dose_grid=grid)
        nodes = models.dose_nodes
        assert nodes.shape[0] == nuisance._MARGINAL_NODES
        ref = np.maximum(dense_f(_weighted(data, sw), models, nodes), DENSITY_FLOOR)
        assert np.max(np.abs(models.f_marginal.y - ref)) <= 1e-6 * np.max(ref)
        assert np.all(models.f_marginal.y >= DENSITY_FLOOR)


def test_f_of_a_stacked_bootstrap_chunk(monkeypatch):
    """f of inference-n500's first bootstrap chunk on two CPUs (n = 500,
    seed 2, replicates 0-24) as one (25, n) weight stack. Every row is
    bitwise f of its weight alone. Every row whose pi_d variance was not
    floored lies within 1e-6 of its peak of f binned at the KDE table's 16
    steps per feature, and within 2e-6 of the dense mixture: replicate 20
    errs 1.4e-6 at either resolution, from the scale-node rule and the
    table's piecewise-linear step, which the working grid does not set
    (docs/DECISIONS.md, D17). Replicates 4, 14 and 24 are floored."""
    data = generate_scenario_data(500, 1)
    grid = default_dose_grid(data.dose)
    weights = np.stack([bootstrap_weights(data.a, 2, b) for b in range(25)])
    stacked = fit_nuisances(_weighted(data, weights), default_specs(), which=("pi_d",), dose_grid=grid)
    f, nodes = stacked.f_marginal.y, stacked.dose_nodes
    floored = stacked.pi_d.density_and_floor_hits(data.dose, data.x_treated)[1] > 0
    np.testing.assert_array_equal(np.nonzero(floored)[0], [4, 14, 24])
    for row, w in enumerate(weights):
        alone = fit_nuisances(_weighted(data, w), default_specs(), which=("pi_d",), dose_grid=grid)
        np.testing.assert_array_equal(f[row], alone.f_marginal.y)
        if not floored[row]:
            ref = np.maximum(dense_f(_weighted(data, w), alone, nodes), DENSITY_FLOOR)
            assert np.max(np.abs(f[row] - ref)) <= 2e-6 * np.max(ref)
    monkeypatch.setattr(numeric, "_MIXTURE_STEPS_PER_FEATURE", numeric._TABLE_STEPS_PER_FEATURE)
    fine = marginalize(None, stacked.pi_d, _weighted(data, weights), nodes)[1].y
    gap = np.max(np.abs(f - fine), axis=-1) / np.max(fine, axis=-1)
    assert np.all(gap[~floored] <= 1e-6)


def test_psi_within_tolerance_at_600():
    """At n = 600 psi lies within 1e-4 sd(psi) of the exact path, with the
    same bandwidth, and the sandwich variances are finite."""
    data = generate_scenario_data(600, stream_seed(306, 2, 0))
    grid = default_dose_grid(data.dose)
    gap, same_h = _psi_gap(data, grid)
    assert same_h
    assert gap <= 1e-4
    models = fit_nuisances(data, SPECS, dose_grid=grid)
    curve = estimate_curve(data, "MR", grid=grid, models=models)
    assert np.all(np.isfinite(sandwich_bands(data, models, curve)[2]))


@pytest.mark.parametrize("weighted", [False, True])
def test_psi_within_tolerance_at_5k(weighted):
    data = generate_scenario_data(5_000, stream_seed(305, 5_000, 0))
    sw = bootstrap_weights(data.a, 7, 0) if weighted else None
    gap, same_h = _psi_gap(data, default_dose_grid(data.dose), sw)
    assert same_h
    assert gap <= 1e-6


@pytest.fixture(scope="module")
def large():
    data = generate_scenario_data(20_000, stream_seed(305, 20_000, 0))
    grid = default_dose_grid(data.dose)
    models = fit_nuisances(data, SPECS, dose_grid=grid)
    return data, grid, models, exact_models(data, models, grid)


def test_capped_psi_within_tolerance_at_20k(large):
    """f on the capped node set (_MARGINAL_NODES evenly spaced doses) puts
    psi within 1e-6 sd(psi) of the exact path at n = 20k."""
    data, grid, models, exact = large
    assert data.n_treated > nuisance._MARGINAL_NODES
    assert models.dose_nodes.shape[0] == nuisance._MARGINAL_NODES
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
    gap, same_h = _psi_gap(data, grid, bootstrap_weights(data.a, 7, 0))
    assert same_h
    assert gap <= 1e-6
