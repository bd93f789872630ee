"""Effect-curve estimators: decompositions, invariances, determinism."""

import numpy as np
import pytest

from dosedid.curves import EstimatorConfig, estimate_curve, write_curve
from dosedid.errors import EstimationError
from dosedid.nuisance import default_specs, fit_nuisances
from dosedid.pseudo import build_pseudo_outcomes
from dosedid.simulation import (
    generate_null_data,
    generate_scenario_data,
    stream_seed,
)

SPECS = default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))


@pytest.fixture(scope="module")
def data():
    return generate_scenario_data(800, stream_seed(300, 0, 0))


def test_decomposition_identity(data):
    for method in ("MR", "MR_PARAMETRIC", "OR", "IPW", "NAIVE"):
        est = estimate_curve(data, method, specs=SPECS)
        np.testing.assert_allclose(est.psi, est.theta_curve - est.theta0, atol=1e-12)


def test_grid_default_and_monotone(data):
    est = estimate_curve(data, "NAIVE")
    assert est.grid.shape == (50,)
    assert abs(est.grid[0] - np.percentile(data.dose, 10)) < 1e-12
    assert abs(est.grid[-1] - np.percentile(data.dose, 90)) < 1e-12
    assert np.all(np.diff(est.grid) > 0)


def test_determinism_bitwise(data):
    a = estimate_curve(data, "MR", specs=SPECS)
    b = estimate_curve(data, "MR", specs=SPECS)
    np.testing.assert_array_equal(a.psi, b.psi)
    np.testing.assert_array_equal(a.theta_curve, b.theta_curve)
    assert a.theta0 == b.theta0 and a.bandwidth == b.bandwidth


def test_or_invariant_to_propensity_specs(data):
    base = estimate_curve(data, "OR", specs=SPECS)
    flipped = estimate_curve(data, "OR", specs=default_specs({"pi_a", "pi_d"}, (1, 3), (0, 2)))
    np.testing.assert_array_equal(base.psi, flipped.psi)


def test_ipw_invariant_to_outcome_specs(data):
    base = estimate_curve(data, "IPW", specs=SPECS)
    flipped = estimate_curve(data, "IPW", specs=default_specs({"mu1", "mu0"}, (1, 3), (0, 2)))
    np.testing.assert_array_equal(base.psi, flipped.psi)


def test_twfe_curve_is_linear(data):
    est = estimate_curve(data, "TWFE")
    slopes = np.diff(est.psi) / np.diff(est.grid)
    np.testing.assert_allclose(slopes, slopes[0], rtol=1e-8)
    assert est.theta0 == 0.0


def test_twfe_curve_is_trend_projection(data):
    # With two stacked periods the post x A and post x A x D coefficients are
    # the least-squares fit of the trend on (1, A, A*D): covariates drop out,
    # and the curve is the treated trend's line in dose minus the control
    # mean trend.
    est = estimate_curve(data, "TWFE")
    trend_t, trend_c = data.split(data.trend)
    slope, intercept = np.polyfit(data.dose, trend_t, 1)
    np.testing.assert_allclose(est.psi, intercept + slope * est.grid - trend_c.mean(), atol=1e-10)


def test_mr_parametric_basis_is_configurable(data):
    cubic = estimate_curve(data, "MR_PARAMETRIC", specs=SPECS)
    linear = estimate_curve(data, "MR_PARAMETRIC", specs=SPECS, parametric_basis=(1,))
    assert cubic.diagnostics["parametric_basis"] == (1, 3)
    slopes = np.diff(linear.psi) / np.diff(linear.grid)
    np.testing.assert_allclose(slopes, slopes[0], rtol=1e-8)


def test_prefit_models_path_matches_internal(data):
    grid = estimate_curve(data, "NAIVE").grid
    models = fit_nuisances(data, SPECS, dose_grid=grid)
    a = estimate_curve(data, "MR", specs=SPECS, grid=grid)
    b = estimate_curve(data, "MR", grid=grid, models=models)
    np.testing.assert_array_equal(a.psi, b.psi)
    assert a.bandwidth == b.bandwidth


def test_estimator_config_reproduces_call(data):
    grid = estimate_curve(data, "NAIVE").grid
    cfg = EstimatorConfig(method="IPW", specs=SPECS, grid=grid)
    np.testing.assert_array_equal(cfg.build(data).psi, estimate_curve(data, "IPW", specs=SPECS, grid=grid).psi)


def test_missing_specs_rejected(data):
    with pytest.raises(EstimationError):
        estimate_curve(data, "MR")
    with pytest.raises(EstimationError):
        estimate_curve(data, "MR", specs={"pi_a": SPECS["pi_a"]})
    with pytest.raises(EstimationError):
        estimate_curve(data, "XYZ")


def test_aggregate_consistency():
    data = generate_scenario_data(1200, stream_seed(300, 1, 0))
    models = fit_nuisances(data, SPECS)
    est = estimate_curve(data, "MR", specs=SPECS)
    pseudo = build_pseudo_outcomes(data, models)
    grid = est.grid
    f_vals = models.f_marginal(grid)
    mass = np.trapezoid(f_vals, grid)
    smoothed_mean = np.trapezoid(est.theta_curve * f_vals, grid) / mass
    in_grid = (data.dose >= grid[0]) & (data.dose <= grid[-1])
    assert abs(smoothed_mean - pseudo.xi[in_grid].mean()) < 0.05


def test_null_dgp_all_methods_near_zero():
    # per-method Monte-Carlo mean over independent null datasets
    reps = 6
    n = 2000
    curves = {m: [] for m in ("MR", "OR", "IPW", "NAIVE", "TWFE")}
    grid = None
    for r in range(reps):
        d = generate_null_data(n, stream_seed(301, r, 0))
        if grid is None:
            grid = estimate_curve(d, "NAIVE").grid
        for m in curves:
            curves[m].append(estimate_curve(d, m, specs=default_specs(), grid=grid).psi)
    for m, rows in curves.items():
        arr = np.vstack(rows)
        mean = arr.mean(axis=0)
        se = arr.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(mean) < 5 * se + 0.02), m


def test_write_curve_roundtrip(tmp_path, data):
    est = estimate_curve(data, "NAIVE")
    est = est.with_bands(est.psi - 1.0, est.psi + 1.0)
    path = tmp_path / "curve.csv"
    write_curve(est, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "delta,psi,theta,ci_lower,ci_upper,method,bandwidth"
    assert len(rows) == 1 + est.grid.shape[0]
    first = rows[1].split(",")
    assert float(first[0]) == est.grid[0]
    assert float(first[1]) == est.psi[0]
    assert first[5] == "NAIVE"
