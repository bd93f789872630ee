"""Sandwich variance and weighted bootstrap contracts."""

import multiprocessing
import os
import pickle
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import sandwich_reference as explicit
from counting import count_formations
from marginal_reference import predict_matrix

from dosedid import curves, inference, nuisance, panel
from dosedid.curves import METHODS, EstimatorConfig, estimate_curve
from dosedid.data import PanelDataset, TwoPeriodDataset, pair_periods
from dosedid.errors import DataValidationError, EstimationError
from dosedid.inference import (
    bootstrap_weights,
    sandwich_bands,
    stacked_sandwich_variance,
    weighted_bootstrap,
)
from dosedid.numeric import WindowedMoments, epanechnikov
from dosedid.nuisance import NuisanceSpec, default_specs, fit_nuisances
from dosedid.pseudo import compute_theta0, compute_xi_terms, control_weights_of
from dosedid.simulation import generate_placebo_panel, generate_scenario_data, stream_seed

SPECS = default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))


@pytest.fixture(scope="module")
def fitted():
    data = generate_scenario_data(400, stream_seed(400, 0, 0))
    models = fit_nuisances(data, SPECS)
    curve = estimate_curve(data, "MR", specs=SPECS)
    return data, models, curve


def test_estimating_equations_vanish_at_solution(fitted):
    data, models, curve = fitted
    for delta in (curve.grid[3], curve.grid[25], curve.grid[-4]):
        system = explicit.system_at(data, models, curve, float(delta))
        sums = explicit.gamma(system).sum(axis=0)
        scales = np.abs(explicit.gamma(system)).mean(axis=0) + 1e-12
        assert np.all(np.abs(sums) <= 1e-6 * data.n * scales)


def test_sandwich_covariance_symmetric_psd(fitted):
    data, models, curve = fitted
    system = explicit.system_at(data, models, curve, float(curve.grid[10]))
    v = explicit.covariance(system)
    assert np.max(np.abs(v - v.T)) < 1e-10 * max(1.0, np.max(np.abs(v)))
    eig = np.linalg.eigvalsh(0.5 * (v + v.T))
    assert eig.min() > -1e-10 * max(1.0, eig.max())


def test_theta0_block_matches_closed_form_oracle(fitted):
    data, models, curve = fitted
    system = explicit.system_at(data, models, curve, float(curve.grid[20]))
    v = explicit.covariance(system)

    # independent direct formulas for the self-normalized group means
    theta00, theta01, _ = compute_theta0(data, models)
    w0 = control_weights_of(data, models).w0
    resid_c = (data.y1 - data.y0 - models.mu0(data.x))[~data.a]
    n0 = data.n_control
    na = data.n_treated
    psi3 = w0 * resid_c - theta00
    var_theta00 = float(psi3 @ psi3) / n0**2
    mu0_t = models.mu0(data.x)[data.a]
    psi4 = mu0_t - theta01
    var_theta01 = float(psi4 @ psi4) / na**2
    assert abs(v[2, 2] - var_theta00) < 1e-8 * max(1.0, var_theta00)
    assert abs(v[3, 3] - var_theta01) < 1e-8 * max(1.0, var_theta01)
    assert abs(v[2, 3]) < 1e-14  # disjoint samples


def test_full_system_matches_hand_loops_on_tiny_data(fitted):
    """Independently rebuild Gamma/bread/meat with plain loops on a small
    dataset and compare the final variance."""
    data_full, _, _ = fitted
    idx = np.concatenate([np.nonzero(data_full.a)[0][:12], np.nonzero(~data_full.a)[0][:10]])
    data = TwoPeriodDataset.from_arrays(
        x=data_full.x[idx],
        a=data_full.a[idx],
        dose=data_full.dose[:12],
        y0=data_full.y0[idx],
        y1=data_full.y1[idx],
    )
    models = fit_nuisances(data, SPECS, dose_grid=np.linspace(data.dose.min(), data.dose.max(), 9))
    h = 2.0 * np.ptp(data.dose)
    curve = estimate_curve(data, "MR", specs=SPECS, grid=np.sort(data.dose[:3]), bandwidth=h, models=models)
    delta = float(curve.grid[1])
    system = explicit.system_at(data, models, curve, delta)

    # hand loops
    xi, _ = compute_xi_terms(data, models)
    theta, beta, theta00, theta01 = system.eta
    # The corrections' integrand is a polynomial between the breakpoints (the
    # nodes of the piecewise-linear f and the window ends), so 5-point
    # Gauss-Legendre on every piece integrates it exactly.
    nodes = models.dose_nodes
    breaks = np.union1d(nodes, np.clip([delta - h, delta + h], nodes[0], nodes[-1]))
    breaks = breaks[(breaks >= delta - h) & (breaks <= delta + h)]
    gl_x, gl_w = np.polynomial.legendre.leggauss(5)
    half = 0.5 * np.diff(breaks)
    pts = (0.5 * (breaks[1:] + breaks[:-1])[:, None] + half[:, None] * gl_x).ravel()
    pts_w = (half[:, None] * gl_w).ravel()
    un = (pts - delta) / h
    kf = pts_w * 0.75 * (1 - un * un) * models.f_marginal(pts)
    m_pts = models.m_marginal(pts)
    p_hat = data.n_treated / data.n
    gamma = np.zeros((data.n, 4))
    t_pos = 0
    for i in range(data.n):
        if data.a[i]:
            d_i = data.dose[t_pos]
            xi_i = xi[t_pos]
            u = (d_i - delta) / h
            k = 0.75 * max(1 - u * u, 0.0) if abs(u) <= 1 else 0.0
            dev = models.mu1(pts, np.tile(data.x[i], (pts.shape[0], 1))) - m_pts
            c0 = float(np.sum(kf * dev))
            c1 = float(np.sum(kf * un * dev))
            gamma[i, 0] = (k * (xi_i - theta - u * beta) + c0) / p_hat
            gamma[i, 1] = (k * u * (xi_i - theta - u * beta) + c1) / p_hat
            gamma[i, 3] = float(models.mu0(data.x[i][None, :])[0]) - theta01
            t_pos += 1
        else:
            pa = float(models.pi_a(data.x[i][None, :])[0])
            w0_raw = pa / (1 - pa)
            resid = data.y1[i] - data.y0[i] - float(models.mu0(data.x[i][None, :])[0])
            gamma[i, 2] = w0_raw / _w0_mean(data, models) * resid - theta00
    np.testing.assert_allclose(gamma, explicit.gamma(system), atol=1e-10)
    np.testing.assert_allclose(explicit.meat(system), gamma.T @ gamma, atol=1e-9)
    binv = np.linalg.inv(system.bread)
    v_hand = binv @ (gamma.T @ gamma) @ binv.T
    contrast = np.array([1.0, 0.0, -1.0, -1.0])
    var_hand = float(contrast @ v_hand @ contrast)
    assert abs(explicit.variance_at(data, models, curve, delta) - var_hand) < 1e-10 * max(1.0, var_hand)


def test_closed_form_corrections_match_dense_quadrature(fitted):
    """c0/c1 from the per-unit (alpha, phi) and the piecewise Gauss-Legendre
    rule equal a dense 200,000-panel Simpson quadrature of the same
    piecewise-linear f against the n_t x doses deviation matrix, to 1e-10
    relative."""
    data, models, curve = fitted
    ctx = inference._CurveContext(data, models, curve)
    h = curve.bandwidth
    nodes = models.dose_nodes
    # mu1(d, X_i) - m(d) is linear in d: read its two coefficients off the
    # dense deviation matrix at three doses, checking the third.
    probe = np.array([nodes[0], nodes[-1], 0.5 * (nodes[0] + nodes[-1])])
    dev = predict_matrix(models.mu1, probe, data.x_treated) - models.m_marginal(probe)[None, :]
    phi = (dev[:, 1] - dev[:, 0]) / (probe[1] - probe[0])
    alpha = dev[:, 0] - phi * probe[0]
    np.testing.assert_allclose(alpha + phi * probe[2], dev[:, 2], rtol=0, atol=1e-10 * np.max(np.abs(dev)))
    for delta in curve.grid[[0, 17, 33, 49]]:
        d = np.linspace(max(delta - h, nodes[0]), min(delta + h, nodes[-1]), 200_001)
        step = d[1] - d[0]
        simpson = np.full(d.shape[0], 2.0 * step / 3.0)
        simpson[1::2] = 4.0 * step / 3.0
        simpson[[0, -1]] = step / 3.0
        u = (d - delta) / h
        q0 = simpson * epanechnikov(u) * models.f_marginal(d)
        c0, c1 = explicit.corrections(ctx, explicit.quadrature(ctx, float(delta)))
        for got, ref in ((c0, alpha * q0.sum() + phi * (q0 @ d)), (c1, alpha * (q0 @ u) + phi * (q0 @ (u * d)))):
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def _w0_mean(data, models):
    pa = models.pi_a(data.x)[~data.a]
    return float(np.mean(pa / (1 - pa)))


def test_duplication_halves_variance():
    data = generate_scenario_data(300, stream_seed(400, 1, 0))
    specs = default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))
    specs["pi_d"] = NuisanceSpec("pi_d", "linear", kde_bandwidth=0.35)
    grid = np.linspace(np.percentile(data.dose, 20), np.percentile(data.dose, 80), 9)
    h = 1.4

    doubled = TwoPeriodDataset.from_arrays(
        x=np.vstack([data.x, data.x]),
        a=np.concatenate([data.a, data.a]),
        dose=np.concatenate([data.dose, data.dose]),
        y0=np.concatenate([data.y0, data.y0]),
        y1=np.concatenate([data.y1, data.y1]),
    )
    delta = float(grid[4])
    v1 = _var_at(data, specs, grid, h, delta)
    v2 = _var_at(doubled, specs, grid, h, delta)
    assert abs(v2 - v1 / 2.0) < 1e-8 * v1


def _var_at(data, specs, grid, h, delta):
    models = fit_nuisances(data, specs, dose_grid=grid)
    curve = estimate_curve(data, "MR", specs=specs, grid=grid, bandwidth=h, models=models)
    return explicit.variance_at(data, models, curve, delta)


def test_stacked_single_period_equals_base(fitted):
    data, models, curve = fitted
    delta = float(curve.grid[14])
    base = explicit.variance_at(data, models, curve, delta, mode="base")
    (stacked,) = stacked_sandwich_variance([(data, models, curve)], [delta])
    assert stacked == base


def test_variance_is_the_squared_norm_of_the_influence_column(fitted):
    data, models, curve = fitted
    for delta in (curve.grid[2], curve.grid[30]):
        system = explicit.system_at(data, models, curve, float(delta))
        quadratic = float(system.contrast @ explicit.covariance(system) @ system.contrast)
        var = explicit.variance(system)
        assert var == float(explicit.influence(system) @ explicit.influence(system)) >= 0.0
        assert abs(var - quadratic) <= 1e-12 * quadratic


def test_stacked_variance_equals_block_diagonal_system(fitted):
    """The mean of two periods' influence columns gives the variance of the
    block-diagonal stacked system: Gammas side by side, breads on the
    diagonal, each period's contrast halved."""
    data, _, _ = fitted
    rng = np.random.default_rng(4)
    later = TwoPeriodDataset.from_arrays(
        x=data.x, a=data.a, dose=data.dose, y0=data.y0, y1=data.y1 + 0.3 * rng.normal(size=data.n)
    )
    periods = []
    for ds in (data, later):
        models = fit_nuisances(ds, SPECS)
        periods.append((ds, models, estimate_curve(ds, "MR", specs=SPECS, models=models)))
    grid = periods[0][2].grid[[5, 24, 40]]
    stacked = stacked_sandwich_variance(periods, grid)
    for k, delta in enumerate(grid):
        parts = [explicit.system_at(*period, float(delta)) for period in periods]
        gamma = np.hstack([explicit.gamma(part) for part in parts])
        bread = np.zeros((8, 8))
        bread[:4, :4], bread[4:, 4:] = parts[0].bread, parts[1].bread
        contrast = np.concatenate([part.contrast for part in parts]) / 2.0
        binv = np.linalg.inv(bread)
        reference = float(contrast @ binv @ gamma.T @ gamma @ binv.T @ contrast)
        assert abs(stacked[k] - reference) <= 1e-12 * reference


def test_augmented_mode_runs_and_vanishes():
    data = generate_scenario_data(200, stream_seed(400, 2, 0))
    models = fit_nuisances(data, SPECS)
    curve = estimate_curve(data, "MR", specs=SPECS)
    delta = float(curve.grid[25])
    system = explicit.system_at(data, models, curve, delta, mode="augmented")
    sums = explicit.gamma(system).sum(axis=0)
    scales = np.abs(explicit.gamma(system)).mean(axis=0) + 1e-9
    assert np.all(np.abs(sums) <= 1e-5 * data.n * scales)
    var_aug = explicit.variance_at(data, models, curve, delta, mode="augmented")
    var_base = explicit.variance_at(data, models, curve, delta, mode="base")
    assert np.isfinite(var_aug) and var_aug >= 0.0
    assert var_aug < 50 * var_base  # same order of magnitude


@pytest.fixture(scope="module")
def augmented_case():
    data = generate_scenario_data(200, stream_seed(400, 8, 0))
    grid = np.linspace(np.percentile(data.dose, 15), np.percentile(data.dose, 85), 4)
    models = fit_nuisances(data, SPECS, dose_grid=grid)
    curve = estimate_curve(data, "MR", specs=SPECS, grid=grid, models=models)
    return data, models, curve


def test_augmented_bands_equal_per_delta_systems_bitwise(augmented_case):
    """Reusing the finite-difference contexts across the grid changes no bit
    against building them afresh for each delta."""
    data, models, curve = augmented_case
    _, _, variances = sandwich_bands(data, models, curve, mode="augmented")
    for k, delta in enumerate(curve.grid):
        var = explicit.variance(explicit.system_at(data, models, curve, float(delta), mode="augmented"))
        assert variances[k] == var


def test_augmented_curve_rebuilds_its_perturbed_sets_in_two_stacks(augmented_case, monkeypatch):
    """At n = 200 the 2p = 58 perturbed sets are two stacks: pi_d's 20 rows
    refit pi_d in one ``with_parameters`` call, the other 38 reuse it, so
    ``marginalize`` runs twice, and the outcome terms are formed once per
    stack, with no per-coordinate set; the curve's own context, the one
    ``_CurveContext``, reads the curve's terms."""
    data, models, curve = augmented_case
    calls = Counter()
    marginalize, refit = inference.marginalize, type(models.pi_d).with_parameters
    context, terms = inference._CurveContext.__init__, inference.outcome_terms

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(inference, "marginalize", counted("marginalize", marginalize))
    monkeypatch.setattr(type(models.pi_d), "with_parameters", counted("with_parameters", refit))
    monkeypatch.setattr(inference._CurveContext, "__init__", counted("contexts", context))
    monkeypatch.setattr(inference, "outcome_terms", counted("outcome terms", terms))
    sandwich_bands(data, models, curve, mode="augmented")
    p = sum(
        c.shape[0]
        for c in (
            models.pi_d.mean_coef,
            models.pi_d.resid_coef,
            models.mu1.coefficients,
            models.pi_a.coefficients,
            models.mu0.coefficients,
        )
    )
    assert p == 29 and curve.grid.shape[0] > 1
    assert calls == Counter({"with_parameters": 1, "marginalize": 2, "contexts": 1, "outcome terms": 2})


def test_stacked_fd_columns_equal_per_coordinate_rebuilds(augmented_case, monkeypatch):
    """Every finite-difference bread column of the two stacks, at every grid
    point, is bitwise the one from rebuilding each perturbed set alone with
    pi_d and f refit for every coordinate; the bands are bitwise the same
    with stacks of at most 5 rows."""
    data, models, curve = augmented_case
    ctx, block = inference._prepare(data, models, curve, "augmented")
    ends = explicit.perturbed_ends(ctx, models, block)
    eta, _, spans = ctx.solve(curve.grid)
    got = block.fd_columns(ctx, curve.grid, eta, ctx.rules(curve.grid), spans)
    for k, delta in enumerate(curve.grid):
        np.testing.assert_array_equal(got[k], explicit.fd_columns(ctx, ends, float(delta)))
    _, _, variances = sandwich_bands(data, models, curve, mode="augmented")
    monkeypatch.setattr(inference, "_STACK_BLOCK", 5 * data.n)
    _, _, small = sandwich_bands(data, models, curve, mode="augmented")
    np.testing.assert_array_equal(small, variances)


def test_augmented_mode_rejects_flexible_learners():
    data = generate_scenario_data(200, stream_seed(400, 3, 0))
    specs = dict(SPECS)
    specs["mu0"] = NuisanceSpec("mu0", "flexible-additive")
    models = fit_nuisances(data, specs)
    curve = estimate_curve(data, "MR", specs=specs)
    with pytest.raises(EstimationError):
        explicit.variance_at(data, models, curve, float(curve.grid[0]), mode="augmented")


def test_sandwich_requires_mr(fitted):
    data, models, _ = fitted
    naive = estimate_curve(data, "NAIVE")
    with pytest.raises(EstimationError):
        explicit.variance_at(data, models, naive, float(naive.grid[0]))


def _explicit_gamma(ctx, models, delta, eta, rule):
    """The four base equations of the context built from ``models`` as a
    dense (n, 4) array, each written out over every unit: the window-free
    form that the sandwich reduces."""
    data = ctx.data
    theta, beta, theta00, theta01 = eta
    c0, c1 = explicit.corrections(ctx, rule)
    u = (data.dose - delta) / ctx.h
    resid = ctx.xi - theta - u * beta
    mu0 = models.mu0(data.x)
    w0 = control_weights_of(data, models).w0
    gamma = np.zeros((data.n, 4))
    t, c = data.a, ~data.a
    gamma[t, 0] = ctx.wt * (epanechnikov(u) * resid + c0) / ctx.p_hat
    gamma[t, 1] = ctx.wt * (epanechnikov(u) * u * resid + c1) / ctx.p_hat
    gamma[c, 2] = ctx.wc * (w0 * (data.trend[c] - mu0[c]) - theta00)
    gamma[t, 3] = ctx.wt * (mu0[t] - theta01)
    return gamma


def _explicit_variance(periods, models_of, delta):
    """The variance of the periods' mean influence column, each column
    Gamma solve(B^T, c) from the dense Gamma, and in augmented mode the
    finite-difference bread columns from the dense Gamma of each perturbed
    set, rebuilt alone (``perturbed_ends``), summed over every unit.
    ``models_of`` maps a context's id to its models."""

    def summed(end, eta, rule):
        ctx_pt, models_pt, score_sum = end
        gamma = _explicit_gamma(ctx_pt, models_pt, delta, eta, rule)
        return np.concatenate([gamma.sum(axis=0), score_sum])

    columns = []
    for ctx, block in periods:
        eta, bread, _ = explicit.solve(ctx, delta)
        rule = explicit.quadrature(ctx, delta)
        scores = block.dense[:, 6:]
        p = scores.shape[1]
        full = np.zeros((4 + p, 4 + p))
        full[:4, :4] = bread
        if p:
            for j, (step, hi, lo) in enumerate(explicit.perturbed_ends(ctx, models_of[id(ctx)], block)):
                full[:, 4 + j] = (summed(hi, eta, rule) - summed(lo, eta, rule)) / (2.0 * step)
        gamma = np.hstack([_explicit_gamma(ctx, models_of[id(ctx)], delta, eta, rule), scores])
        contrast = np.concatenate([[1.0, 0.0, -1.0, -1.0], np.zeros(p)])
        columns.append(gamma @ np.linalg.solve(full.T, contrast))
    iota = sum(columns) / len(columns)
    return float(iota @ iota)


def test_window_local_variances_match_the_explicit_gamma_path(fitted, monkeypatch):
    """Base, augmented and stacked variances from the fixed columns and the
    window's kernel part against the dense Gamma over every unit, on
    weighted data, at grid points whose kernel window the node range clips
    and at inner ones. Base and stacked agree to 1e-12 relative. Augmented
    agrees to 1e-10: its finite-difference columns divide summed equations
    by 2e-5, so the order in which the units are summed moves them; summing
    the dense path's own units in reverse order moves its variance by up to
    3e-12."""
    models_of = {}
    original = inference._CurveContext.__init__

    def remembering(self, data, models, curve):
        models_of[id(self)] = models
        original(self, data, models, curve)

    monkeypatch.setattr(inference._CurveContext, "__init__", remembering)
    rng = np.random.default_rng(4)
    data = replace(fitted[0], weight=rng.uniform(0.5, 2.0, fitted[0].n))
    later = replace(data, y1=data.y1 + 0.3 * rng.normal(size=data.n))
    pairs = []
    for ds in (data, later):
        models = fit_nuisances(ds, SPECS)
        pairs.append((ds, models, estimate_curve(ds, "MR", specs=SPECS, models=models)))
    (data, models, curve), _ = pairs
    grid = curve.grid[[0, 1, 24, 48, 49]]
    cases = [
        ("base", [inference._prepare(data, models, curve, "base")], 1e-12),
        ("stacked", [inference._prepare(*pair, "base") for pair in pairs], 1e-12),
        ("augmented", [inference._prepare(data, models, curve, "augmented")], 1e-10),
    ]
    ctx = cases[0][1][0][0]
    clipped = [d for d in grid if d - ctx.h < ctx.nodes[0] or d + ctx.h > ctx.nodes[-1]]
    assert 0 < len(clipped) < len(grid)
    for name, periods, tol in cases:
        variances, _ = inference._variances(periods, grid)
        for k, delta in enumerate(grid):
            reference = _explicit_variance(periods, models_of, float(delta))
            assert abs(variances[k] - reference) <= tol * reference, (name, delta)


def test_grid_rules_are_the_per_delta_quadrature_rules(fitted):
    """Each grid point's row of ``rules`` is bitwise the quadrature rule
    built for that delta alone, at clipped and inner windows and at a delta
    whose window misses the node range; beyond its count it is zero."""
    data, models, curve = fitted
    ctx = inference._CurveContext(data, models, curve)
    grid = np.concatenate([curve.grid, [ctx.nodes[0] - 2.0 * ctx.h, ctx.nodes[-1] + 2.0 * ctx.h, ctx.nodes[0]]])
    first, counts, weights = ctx.rules(grid)
    for k, delta in enumerate(grid):
        lo, reference = explicit.quadrature(ctx, float(delta))
        assert (first[k], counts[k]) == (lo, reference.shape[1])
        np.testing.assert_array_equal(weights[k, :, : counts[k]], reference)
        assert not np.any(weights[k, :, counts[k] :])


def test_grid_pass_is_bitwise_the_per_delta_systems(fitted):
    """Base, stacked and augmented variances over a whole 50-point grid,
    with every system formed in the one grid pass, are bitwise those of the
    systems built one delta at a time, with the same largest condition
    number."""
    data, models, curve = fitted
    later = replace(data, y1=data.y1 + 0.3 * np.random.default_rng(5).normal(size=data.n))
    models_later = fit_nuisances(later, SPECS)
    curve_later = estimate_curve(later, "MR", specs=SPECS, models=models_later)
    cases = {
        "base": [inference._prepare(data, models, curve, "base")],
        "stacked": [
            inference._prepare(data, models, curve, "base"),
            inference._prepare(later, models_later, curve_later, "base"),
        ],
        "augmented": [inference._prepare(data, models, curve, "augmented")],
    }
    for name, periods in cases.items():
        got, cond = inference._variances(periods, curve.grid)
        want, cond_want = explicit.variances(periods, curve.grid)
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert cond == cond_want, name


def test_sandwich_is_bitwise_the_from_scratch_context(fitted):
    """The sandwich reads the curve's outcome terms and the set's weight
    parts, and its variances are bitwise those of the context formed from
    scratch (``sandwich_reference.fresh``), with the same largest condition
    number: base on the 50-point grid, stacked over three period pairs that
    share their weight parts, augmented on a 10-point grid. A curve from an
    equal but separately fitted set forms its terms afresh and gives bitwise
    the same bands; a set whose pi_a is replaced drops its control weights,
    so its curve's theta0 is the one that pi_a gives; and a curve's terms
    are not read for another set or other outcomes."""
    data, models, separate = fitted
    curve = estimate_curve(data, "MR", models=models)
    assert curve.terms.reads(data, models) and not separate.terms.reads(data, models)
    placebo = generate_placebo_panel(300, 13)
    pairs = [pair_periods(placebo, pre, post) for pre, post in ((0, 1), (1, 2), (0, 2))]
    grid = nuisance.default_dose_grid(placebo.dose)
    pair_curves = panel._pair_curves(pairs, "MR", SPECS, grid, [None] * 3)
    pair_sets = [c.terms.models for c in pair_curves]
    assert pair_sets[2].dose_weights is pair_sets[0].dose_weights
    ten = estimate_curve(data, "MR", grid=curve.grid[::5], bandwidth=curve.bandwidth, models=models)
    cases = {
        "base": ([(data, models, curve)], "base", curve.grid),
        "stacked": (list(zip(pairs, pair_sets, pair_curves)), "base", grid),
        "augmented": ([(data, models, ten)], "augmented", ten.grid),
    }
    for name, (periods, mode, on) in cases.items():
        got, cond = inference._variances([inference._prepare(*period, mode) for period in periods], on)
        want, cond_want = inference._variances([explicit.fresh(*period, mode) for period in periods], on)
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert cond == cond_want, name
    for own, other in zip(sandwich_bands(data, models, curve), sandwich_bands(data, models, separate)):
        np.testing.assert_array_equal(own, other)

    const = replace(models, pi_a=models.pi_a.with_coefficients(np.zeros(models.pi_a.coefficients.shape[0])))
    assert const.control_weights is None and const.dose_weights is models.dose_weights
    flat = estimate_curve(data, "MR", grid=curve.grid, bandwidth=curve.bandwidth, models=const)
    reference = explicit.FreshContext(data, const, flat)
    assert flat.theta0 == reference.theta00 + reference.theta01 != curve.theta0
    np.testing.assert_array_equal(flat.theta_curve, curve.theta_curve)
    np.testing.assert_array_equal(flat.psi, curve.theta_curve - flat.theta0)
    # A curve's terms are not read for other fitted objects or other data.
    later = replace(data, y1=data.y1 + 0.3 * np.random.default_rng(5).normal(size=data.n))
    for on, shown in ((data, flat), (later, curve)):
        got = sandwich_bands(on, models, shown)[2]
        np.testing.assert_array_equal(got, inference._variances([explicit.fresh(on, models, shown)], shown.grid)[0])


def test_kernel_part_lives_on_the_window(fitted):
    data, models, curve = fitted
    treated = np.flatnonzero(data.a)
    for delta in curve.grid[[0, 20, 49]]:
        system = explicit.system_at(data, models, curve, float(delta))
        inside = treated[np.abs(data.dose - delta) < curve.bandwidth]
        np.testing.assert_array_equal(np.sort(system.kernel_units), inside)
        assert system.kernel.shape == (inside.shape[0], 2)
        assert system.dense.shape == (data.n, 6)


def test_bands_record_the_largest_bread_condition_number(fitted):
    """On the full grid the bread is worst conditioned at the last point, on
    its first 30 points at the first."""
    data, models, full = fitted
    part = estimate_curve(data, "MR", specs=SPECS, grid=full.grid[:30], bandwidth=full.bandwidth, models=models)
    for curve, worst in ((full, 49), (part, 0)):
        bands = sandwich_bands(data, models, curve)
        lower, upper, variances = bands
        assert len(bands) == 3 and bands[2] is variances
        conds = [np.linalg.cond(explicit.system_at(data, models, curve, float(d)).bread) for d in curve.grid]
        assert int(np.argmax(conds)) == worst
        assert bands.bread_cond_max == max(conds)
        assert 1.0 < bands.bread_cond_max < 1e12
        copied = pickle.loads(pickle.dumps(bands))
        assert copied.bread_cond_max == bands.bread_cond_max and len(copied) == 3


# ---------------------------------------------------------------- bootstrap


def test_each_grid_point_reads_the_window_moments_once(fitted, monkeypatch):
    """One ``moments`` call serves every grid point of the bands: eta, the
    bread and the kernel spans all read it."""
    data, models, curve = fitted
    calls = Counter()
    moments = WindowedMoments.moments

    def counted(self, targets, h):
        calls[len(targets)] += 1
        return moments(self, targets, h)

    monkeypatch.setattr(WindowedMoments, "moments", counted)
    sandwich_bands(data, models, curve)
    assert calls == Counter({curve.grid.shape[0]: 1})


def test_base_bands_assemble_the_pseudo_outcomes_once(monkeypatch):
    """The base bands of one MR curve at n = 800 read xi, theta00, theta01,
    mu0(X) and the smoother window from the curve and w0 from the model
    set, bitwise the values the routines give: no weight part is formed,
    pi_a and mu0 are not evaluated, no window is built, and the one design
    assembled is mu1's covariate block for the quadrature corrections (at
    the parent: one dose-weight formation, one pi_a(X), 6 designs and one
    window)."""
    data = generate_scenario_data(800, 1)
    models = fit_nuisances(data, SPECS)
    curve = estimate_curve(data, "MR", models=models)
    counts = count_formations(monkeypatch)
    sandwich_bands(data, models, curve)
    assert counts == Counter({"designs": 1})
    ctx = inference._CurveContext(data, models, curve)
    np.testing.assert_array_equal(ctx.xi, compute_xi_terms(data, models)[0])
    assert ctx.theta00 + ctx.theta01 == curve.theta0
    assert ctx.window is curve.terms.window


def test_bootstrap_weights_group_sums():
    data = generate_scenario_data(250, stream_seed(400, 4, 0))
    for b in range(5):
        w = bootstrap_weights(data.a, 77, b)
        assert abs(w[data.a].sum() - data.n_treated) < 1e-10
        assert abs(w[~data.a].sum() - data.n_control) < 1e-10
        assert np.all(w > 0)


def test_bootstrap_weights_counter_based():
    a = np.zeros(40, dtype=bool)
    a[:17] = True
    w5 = bootstrap_weights(a, 9, 5)
    np.testing.assert_array_equal(bootstrap_weights(a, 9, 5), w5)
    assert not np.array_equal(bootstrap_weights(a, 9, 6), w5)
    assert not np.array_equal(bootstrap_weights(a, 10, 5), w5)


def test_forced_unit_weights_reproduce_point_estimate_bitwise(monkeypatch):
    data = generate_scenario_data(300, stream_seed(400, 5, 0))
    point = estimate_curve(data, "MR", specs=SPECS)
    cfg = EstimatorConfig(method="MR", specs=SPECS, grid=point.grid, bandwidth=point.bandwidth)
    monkeypatch.setattr(inference, "bootstrap_weights", lambda a, seed, b: np.ones(len(a)))
    result = weighted_bootstrap(data, cfg, 3, seed=0)
    assert result.b_failed == 0
    for row in result.curves:
        np.testing.assert_array_equal(row, point.psi)


def test_bootstrap_deterministic_and_percentile():
    data = generate_scenario_data(240, stream_seed(400, 6, 0))
    point = estimate_curve(data, "MR", specs=SPECS)
    cfg = EstimatorConfig(
        method="MR", specs=SPECS, grid=point.grid, bandwidth=point.bandwidth, on_out_of_range="clamp"
    )
    r1 = weighted_bootstrap(data, cfg, 24, seed=5)
    r2 = weighted_bootstrap(data, cfg, 24, seed=5)
    np.testing.assert_array_equal(r1.curves, r2.curves)
    np.testing.assert_array_equal(r1.ci_lower, r2.ci_lower)
    lo, hi = np.percentile(r1.curves, [2.5, 97.5], axis=0)
    np.testing.assert_array_equal(r1.ci_lower, lo)
    np.testing.assert_array_equal(r1.ci_upper, hi)
    assert not r1.flagged


def test_bootstrap_needs_two_replicates(fitted):
    data, _, curve = fitted
    cfg = EstimatorConfig(method="NAIVE", grid=curve.grid, bandwidth=curve.bandwidth)
    with pytest.raises(EstimationError):
        weighted_bootstrap(data, cfg, 1, seed=0)
    with pytest.raises(EstimationError):
        weighted_bootstrap(data, EstimatorConfig(method="NAIVE"), 5, seed=0)


def test_bootstrap_width_close_to_sandwich_width():
    data = generate_scenario_data(1000, stream_seed(400, 7, 0))
    models = fit_nuisances(data, SPECS)
    curve = estimate_curve(data, "MR", specs=SPECS, models=models)
    lo, hi, _ = sandwich_bands(data, models, curve)
    cfg = EstimatorConfig(
        method="MR", specs=SPECS, grid=curve.grid, bandwidth=curve.bandwidth, on_out_of_range="clamp"
    )
    boot = weighted_bootstrap(data, cfg, 500, seed=11)
    k = curve.grid.shape[0] // 2
    sand_width = hi[k] - lo[k]
    boot_width = boot.ci_upper[k] - boot.ci_lower[k]
    assert abs(boot_width - sand_width) < 0.25 * sand_width


def _spoil_weight(monkeypatch, replicate: int, unit: int, value: float) -> None:
    """Patch ``inference.bootstrap_weights``, which forked workers inherit,
    so that replicate ``replicate`` draws ``value`` as unit ``unit``'s
    weight."""
    draw = inference.bootstrap_weights

    def weights(a, seed, b):
        w = draw(a, seed, b)
        if b == replicate:
            w[unit] = value
        return w

    monkeypatch.setattr(inference, "bootstrap_weights", weights)


def test_bootstrap_counts_failures_by_error_class(monkeypatch):
    data = generate_scenario_data(240, stream_seed(400, 9, 0))
    point = estimate_curve(data, "MR", specs=SPECS)
    cfg = EstimatorConfig(method="MR", specs=SPECS, grid=point.grid, bandwidth=point.bandwidth, on_out_of_range="clamp")

    with monkeypatch.context() as patch:
        _spoil_weight(patch, 2, 5, np.inf)
        result = weighted_bootstrap(data, cfg, 5, seed=3)
    assert result.failures == {"DataValidationError": 1}
    assert result.b_failed == 1 and result.curves.shape[0] == 4
    clean = weighted_bootstrap(data, cfg, 3, seed=3)
    assert clean.failures == {} and clean.b_failed == 0


def test_bootstrap_where_every_replicate_fails_raises(monkeypatch):
    monkeypatch.setattr(inference, "fork_map", lambda fn, items, workers: [fn(c) for c in items])

    def failing(weights):
        raise DataValidationError("no replicate survives")

    with pytest.raises(EstimationError, match="every bootstrap replicate failed"):
        inference.bootstrap_replicates(np.arange(12) % 3 == 0, failing, 4, seed=1)


def test_sandwich_guards_raise(fitted):
    """No periods to stack, periods of different unit counts, and an
    unknown mode are each an EstimationError."""
    data, models, curve = fitted
    with pytest.raises(EstimationError, match="no per-period systems"):
        stacked_sandwich_variance([], curve.grid)
    shorter = generate_scenario_data(data.n - 50, stream_seed(400, 10, 0))
    with pytest.raises(EstimationError, match="share the unit roster"):
        stacked_sandwich_variance([(data, models, curve), (shorter, models, curve)], curve.grid)
    with pytest.raises(EstimationError, match="unknown sandwich mode 'bogus'"):
        sandwich_bands(data, models, curve, mode="bogus")


def test_bootstrap_needs_a_bandwidth_for_smoothing_methods(fitted):
    """Leave-one-out selection takes one weight row, so a smoothing method's
    bootstrap needs the bandwidth fixed; OR and TWFE need none."""
    data, _, curve = fitted
    for method in ("MR", "IPW", "NAIVE"):
        with pytest.raises(EstimationError, match="bandwidth"):
            weighted_bootstrap(data, EstimatorConfig(method=method, specs=SPECS, grid=curve.grid), 4, seed=0)
    stacked = replace(data, weight=np.stack([bootstrap_weights(data.a, 1, b) for b in range(2)]))
    with pytest.raises(EstimationError, match="bandwidth"):
        estimate_curve(stacked, "NAIVE", grid=curve.grid)
    result = weighted_bootstrap(data, EstimatorConfig(method="TWFE", grid=curve.grid), 4, seed=0)
    assert result.curves.shape == (4, curve.grid.shape[0])


def _separable(data: TwoPeriodDataset) -> TwoPeriodDataset:
    """``data`` with a fourth covariate that splits the treated units from
    the controls, so no pi_a maximum-likelihood fit exists."""
    x = data.x.copy()
    x[:, 3] = np.where(data.a, 1.0, -1.0) * (1.0 + np.abs(x[:, 3]))
    return TwoPeriodDataset.from_arrays(x=x, a=data.a, dose=data.dose, y0=data.y0, y1=data.y1)


def test_bootstrap_counts_replicates_whose_pi_a_did_not_converge():
    clean = generate_scenario_data(240, stream_seed(400, 10, 0))
    for data, stuck in ((clean, 0), (_separable(clean), 6)):
        point = estimate_curve(data, "MR", specs=SPECS)
        assert point.diagnostics["pi_a_converged"] is (stuck == 0)
        cfg = EstimatorConfig("MR", SPECS, point.grid, point.bandwidth, on_out_of_range="clamp")
        result = weighted_bootstrap(data, cfg, 6, seed=4)
        assert result.b_failed == 0
        assert result.pi_a_unconverged == stuck
        rep = panel.estimate_repeated(
            _three_periods(data), [(0, 1), (0, 2)], "MR", specs=SPECS, inference="bootstrap", b_replicates=3
        )
        assert rep.averaged.diagnostics["bootstrap_pi_a_unconverged"] == stuck // 2


def _three_periods(data: TwoPeriodDataset) -> PanelDataset:
    """``data`` as a three-period panel whose third period is the second
    shifted by 0.1."""
    return PanelDataset(
        ids=data.ids,
        x=data.x,
        a=data.a,
        dose=data.dose,
        y=np.column_stack([data.y0, data.y1, data.y1 + 0.1]),
        period_labels=(0, 1, 2),
        covariate_names=data.covariate_names,
    )


def test_bootstrap_counts_replicates_whose_pi_d_variance_was_floored():
    """In inference-n500's bootstrap (n = 500, seed 2), pi_d's
    squared-residual fit falls below RESIDUAL_VAR_FLOOR at some treated
    unit in replicates 4, 14, 24, 26 and 32 of the first 40; their pi_d and
    f are the floor's. Methods that read pi_d count them; OR does not."""
    data = generate_scenario_data(500, 1)
    weights = np.stack([bootstrap_weights(data.a, 2, b) for b in range(40)])
    pi_d = fit_nuisances(replace(data, weight=weights), SPECS, which=("pi_d",)).pi_d
    hits = pi_d.density_and_floor_hits(data.dose, data.x_treated)[1]
    np.testing.assert_array_equal(np.nonzero(hits)[0], [4, 14, 24, 26, 32])
    for method, floored in (("MR", 5), ("IPW", 5), ("OR", 0)):
        point = estimate_curve(data, method, specs=SPECS)
        cfg = EstimatorConfig(method, SPECS, point.grid, point.bandwidth, on_out_of_range="clamp")
        result = weighted_bootstrap(data, cfg, 40, seed=2)
        assert result.b_failed == 0
        assert result.pi_d_var_floored == floored
    rep = panel.estimate_repeated(
        _three_periods(data), [(0, 1), (0, 2)], "MR", specs=SPECS, inference="bootstrap", b_replicates=40, seed=2
    )
    assert rep.averaged.diagnostics["bootstrap_pi_d_var_floored"] == 5


# ------------------------------------------------------ stacked replicates

B_STACKED = 37


@pytest.fixture(scope="module")
def stack_data():
    return generate_scenario_data(300, stream_seed(400, 11, 0))


def _chunks_of_16(monkeypatch, n: int) -> list:
    """Make the bootstrap stack at most 16 replicates per chunk, in-process
    (so B = 37 runs as 13 + 13 + 11), and record the weight shape of every
    estimator call; a forked worker's calls could not be recorded."""
    monkeypatch.setattr(inference, "pool_size", lambda: 1)
    monkeypatch.setattr(inference, "_STACK_BLOCK", 16 * n)
    shapes = []
    original = curves.estimate_curve

    def recording(data, *args, **kwargs):
        shapes.append(data.weight.shape)
        return original(data, *args, **kwargs)

    monkeypatch.setattr(curves, "estimate_curve", recording)
    return shapes


@pytest.mark.parametrize("method", METHODS)
def test_stacked_replicates_equal_single_runs(stack_data, method, monkeypatch):
    """Every row of a chunked, stacked bootstrap is the estimator run alone
    on that replicate's weights, within 1e-10 of psi-hat's bootstrap
    standard deviation."""
    data = stack_data
    point = estimate_curve(data, method, specs=SPECS)
    cfg = EstimatorConfig(method, SPECS, point.grid, point.bandwidth, on_out_of_range="clamp")
    shapes = _chunks_of_16(monkeypatch, data.n)
    result = weighted_bootstrap(data, cfg, B_STACKED, seed=21)
    assert shapes == [(13, data.n), (13, data.n), (11, data.n)]
    assert result.b_failed == 0 and result.curves.shape == (B_STACKED, point.grid.shape[0])
    tol = 1e-10 * result.curves.std(axis=0)
    for b, row in enumerate(result.curves):
        alone = cfg.build(replace(data, weight=bootstrap_weights(data.a, 21, b))).psi
        assert np.all(np.abs(row - alone) <= tol)


@pytest.mark.parametrize("method", METHODS)
def test_one_row_stack_equals_single_run(stack_data, method):
    """A (1, n) weight stack runs the stacked pipeline on one row: it gives
    (1, K) psi, (1,) theta0 and one-row diagnostics, bitwise those of the
    same weights as an (n,) single run."""
    data = stack_data
    point = estimate_curve(data, method, specs=SPECS)
    cfg = EstimatorConfig(method, SPECS, point.grid, point.bandwidth, on_out_of_range="clamp")
    w = bootstrap_weights(data.a, 21, 0)
    single = cfg.build(replace(data, weight=w))
    one = cfg.build(replace(data, weight=w[None, :]))
    assert one.psi.shape == (1, point.grid.shape[0]) and np.shape(one.theta0) == (1,)
    np.testing.assert_array_equal(one.psi[0], single.psi)
    np.testing.assert_array_equal(one.theta_curve[0], single.theta_curve)
    assert one.theta0[0] == single.theta0
    assert set(one.diagnostics) == set(single.diagnostics)
    for name, value in single.diagnostics.items():
        np.testing.assert_array_equal(np.ravel(one.diagnostics[name]), np.ravel(value), err_msg=name)


def test_stacked_rows_with_floored_variances_equal_single_runs():
    """Rows whose pi_d variance fit dips below RESIDUAL_VAR_FLOOR put scale
    outliers outside f's binned window, summed directly, row by row: such
    rows are still the estimator run alone on their weights."""
    data = generate_scenario_data(500, 41)
    point = estimate_curve(data, "MR", specs=SPECS)
    weights = np.stack([bootstrap_weights(data.a, 42, b) for b in range(9)])
    cfg = EstimatorConfig("MR", SPECS, point.grid, point.bandwidth, on_out_of_range="clamp")
    stacked = cfg.build(replace(data, weight=weights))
    assert np.count_nonzero(stacked.diagnostics["pi_d_var_floor_hits"]) >= 2
    tol = 1e-10 * stacked.psi.std(axis=0)
    for row, w in zip(stacked.psi, weights):
        assert np.all(np.abs(row - cfg.build(replace(data, weight=w)).psi) <= tol)


def test_a_failed_replicate_fails_alone_in_its_stack(stack_data, monkeypatch):
    """A non-finite weight in the middle of a chunk costs that replicate
    alone; the chunk's other replicates, rerun one at a time, are bitwise
    the rows of the clean run."""
    data = stack_data
    point = estimate_curve(data, "MR", specs=SPECS)
    cfg = EstimatorConfig("MR", SPECS, point.grid, point.bandwidth, on_out_of_range="clamp")
    shapes = _chunks_of_16(monkeypatch, data.n)
    clean = weighted_bootstrap(data, cfg, B_STACKED, seed=21)
    _spoil_weight(monkeypatch, 20, 7, np.nan)
    del shapes[:]
    result = weighted_bootstrap(data, cfg, B_STACKED, seed=21)
    assert result.failures == {"DataValidationError": 1}
    np.testing.assert_array_equal(result.curves, np.delete(clean.curves, 20, axis=0))
    # The middle chunk fails as a stack before its replicates run one by one
    # (replicate 20 fails building its dataset, before the estimator).
    assert shapes == [(13, data.n)] + [(data.n,)] * 12 + [(11, data.n)]


def test_repeated_bootstrap_rows_equal_per_pair_single_runs(monkeypatch):
    placebo = generate_placebo_panel(300, 12)
    specs = default_specs()
    pairs = [(0, 1), (1, 2)]
    _chunks_of_16(monkeypatch, placebo.n)
    captured = []
    original = panel.bootstrap_replicates
    monkeypatch.setattr(panel, "bootstrap_replicates", lambda *a, **k: captured.extend(original(*a, **k)) or captured)
    rep = panel.estimate_repeated(placebo, pairs, "MR", specs=specs, inference="bootstrap", b_replicates=B_STACKED, seed=5)
    *per_pair, average = captured
    scale = 1e-10 * average.curves.std(axis=0)
    for b in range(B_STACKED):
        w = bootstrap_weights(placebo.a, 5, b)
        alone = [
            EstimatorConfig("MR", specs, curve.grid, curve.bandwidth, on_out_of_range="clamp")
            .build(replace(pair_periods(placebo, *pair), weight=w))
            .psi
            for curve, pair in zip(rep.per_m, pairs)
        ]
        for result, row in zip(per_pair, alone):
            assert np.all(np.abs(result.curves[b] - row) <= scale)
        assert np.all(np.abs(average.curves[b] - np.mean(alone, axis=0)) <= scale)


# ------------------------------------------------------------ process pool


def _bootstrap_at(monkeypatch, size, *args, **kwargs):
    """``weighted_bootstrap`` with the pool size forced to ``size``; no
    worker outlives the call."""
    monkeypatch.setattr(inference, "pool_size", lambda: size)
    result = weighted_bootstrap(*args, **kwargs)
    assert multiprocessing.active_children() == []
    return result


def _assert_same_result(pooled, alone):
    assert pooled.curves.tobytes() == alone.curves.tobytes()
    assert pooled.ci_lower.tobytes() == alone.ci_lower.tobytes()
    assert pooled.ci_upper.tobytes() == alone.ci_upper.tobytes()
    assert pooled.failures == alone.failures
    assert pooled.pi_a_unconverged == alone.pi_a_unconverged


@pytest.mark.parametrize("method", METHODS)
def test_pooled_bootstrap_equals_in_process(stack_data, method, monkeypatch):
    """Two workers (chunks of 19 + 18 rows) give the in-process loop's one
    37-row chunk bitwise: curves, bands and counts."""
    data = stack_data
    point = estimate_curve(data, method, specs=SPECS)
    cfg = EstimatorConfig(method, SPECS, point.grid, point.bandwidth, on_out_of_range="clamp")
    alone = _bootstrap_at(monkeypatch, 1, data, cfg, B_STACKED, seed=21)
    pooled = _bootstrap_at(monkeypatch, 2, data, cfg, B_STACKED, seed=21)
    _assert_same_result(pooled, alone)


def test_a_failed_replicate_fails_alone_in_a_pooled_chunk(stack_data, monkeypatch):
    """Replicate 20 sits in the second worker's chunk (rows 19-36); its NaN
    weight fails it alone, counted as in-process, and the result is the
    in-process one bitwise."""
    data = stack_data
    point = estimate_curve(data, "MR", specs=SPECS)
    cfg = EstimatorConfig("MR", SPECS, point.grid, point.bandwidth, on_out_of_range="clamp")
    _spoil_weight(monkeypatch, 20, 7, np.nan)
    alone = _bootstrap_at(monkeypatch, 1, data, cfg, B_STACKED, seed=21)
    pooled = _bootstrap_at(monkeypatch, 2, data, cfg, B_STACKED, seed=21)
    assert pooled.failures == {"DataValidationError": 1}
    assert pooled.curves.shape == (B_STACKED - 1, point.grid.shape[0])
    _assert_same_result(pooled, alone)


@pytest.mark.parametrize(
    "n, b, size, rows",
    [
        (500, 200, 2, [25] * 8),
        (500, 50, 2, [25, 25]),
        (300, 37, 2, [19, 18]),
        (500, 200, 1, [29] * 6 + [26]),
        (500, 200, 3, [23] * 8 + [16]),
    ],
)
def test_chunks_are_equal_and_a_multiple_of_the_pool_size(monkeypatch, n, b, size, rows):
    """The fewest chunks that fit the 16,384-element stack, rounded up to a
    multiple of the pool size, ceil(B / chunks) rows each; the rows of the
    chunks come back in replicate order."""
    seen = []

    def in_process(fn, items, workers):
        seen.append(([len(c) for c in items], workers))
        return [fn(c) for c in items]

    monkeypatch.setattr(inference, "pool_size", lambda: size)
    monkeypatch.setattr(inference, "fork_map", in_process)
    a = np.arange(n) % 3 == 0
    (result,) = inference.bootstrap_replicates(a, lambda w: [_Rows(w[..., :4])], b, seed=1)
    assert seen == [(rows, size)]
    np.testing.assert_array_equal(result.curves, [bootstrap_weights(a, 1, r)[:4] for r in range(b)])


class _Rows:
    """A stand-in estimate whose psi rows are the weights' first columns."""

    def __init__(self, psi):
        self.psi = psi
        self.diagnostics = {}


def test_pool_size_is_one_inside_a_multiprocessing_child():
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        assert pool.submit(inference.pool_size).result(timeout=60) == 1
    assert inference.pool_size() == len(os.sched_getaffinity(0))
