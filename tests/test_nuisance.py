"""Nuisance fits: specification handling, group discipline, marginals."""

from dataclasses import replace

import numpy as np
import pytest

from dosedid.data import TwoPeriodDataset
from dosedid.errors import FitError
from dosedid.nuisance import (
    DENSITY_FLOOR,
    NuisanceSpec,
    default_dose_grid,
    default_specs,
    fit_mu0,
    fit_mu1,
    fit_nuisances,
    fit_pi_a,
    fit_pi_d,
    kang_schafer_map,
    marginalize,
)
from dosedid.simulation import generate_scenario_data, stream_seed


@pytest.fixture(scope="module")
def data_big():
    return generate_scenario_data(5000, stream_seed(100, 0, 0))


@pytest.fixture(scope="module")
def data_small():
    return generate_scenario_data(300, stream_seed(100, 1, 0))


# ---------------------------------------------------------------- map


def test_kang_schafer_at_zero():
    np.testing.assert_allclose(kang_schafer_map(np.zeros(4)), [1.0, 10.0, 0.216, 400.0], atol=1e-12)


def test_kang_schafer_injective_on_samples():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(100_000, 4))
    w = kang_schafer_map(x)
    assert np.unique(w, axis=0).shape[0] == 100_000


def test_kang_schafer_continuity():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(100, 4))
    for eps in (1e-3, 1e-5, 1e-7):
        gap = np.abs(kang_schafer_map(x + eps) - kang_schafer_map(x)).max()
        assert gap < 200 * eps


def test_kang_schafer_needs_four_covariates():
    with pytest.raises(ValueError):
        kang_schafer_map(np.zeros(3))


# ---------------------------------------------------------------- pi_a


def test_pi_a_intercept_only_truth():
    rng = np.random.default_rng(22)
    n = 5000
    x = rng.normal(size=(n, 4))
    a = rng.random(n) < 0.4  # independent of x
    data = TwoPeriodDataset.from_arrays(
        x=x, a=a, dose=rng.normal(3, 1, int(a.sum())), y0=np.zeros(n), y1=np.ones(n)
    )
    model = fit_pi_a(data, NuisanceSpec("pi_a", "logistic"))
    preds = model(x)
    assert np.all(np.abs(preds - a.mean()) < 0.05)


def test_pi_a_covariate_map_changes_fit(data_big):
    ident = fit_pi_a(data_big, NuisanceSpec("pi_a", "logistic", "identity"))
    wrong = fit_pi_a(data_big, NuisanceSpec("pi_a", "logistic", "kang_schafer"))
    assert np.max(np.abs(ident(data_big.x) - wrong(data_big.x))) > 1e-4


def test_pi_a_single_class_errors():
    rng = np.random.default_rng(23)
    n = 40
    x = rng.normal(size=(n, 4))
    a = np.ones(n, dtype=bool)
    a[-1] = False  # constructor needs one control; flip treatment to all-1 after
    data = TwoPeriodDataset.from_arrays(
        x=x, a=a, dose=rng.normal(3, 1, n - 1), y0=np.zeros(n), y1=np.ones(n)
    )
    lop_sided = TwoPeriodDataset.from_arrays(
        x=x, a=a, dose=data.dose, y0=data.y0, y1=data.y1
    )
    # zero out the weight of the only control: single effective class
    w = np.ones(n)
    w[-1] = 0.0
    with pytest.raises(FitError):
        fit_pi_a(replace(lop_sided, weight=w), NuisanceSpec("pi_a", "logistic"))


def test_pi_a_clipping(data_small):
    model = fit_pi_a(data_small, NuisanceSpec("pi_a", "logistic"))
    extreme = np.array([[80.0, 80.0, -80.0, 80.0], [-80.0, -80.0, 80.0, -80.0]])
    p = model(extreme)
    assert np.all(p >= 1e-6) and np.all(p <= 1 - 1e-6)


# ---------------------------------------------------------------- pi_d


def test_pi_d_recovers_homoskedastic_variance(data_big):
    model = fit_pi_d(data_big, NuisanceSpec("pi_d", "linear"))
    s2 = model.location_scale(data_big.x_treated)[1] ** 2
    assert abs(s2.mean() - 4.0) < 0.6  # within 15% of sigma^2 = 4


def test_pi_d_density_normalizes(data_small):
    model = fit_pi_d(data_small, NuisanceSpec("pi_d", "linear"))
    rng = np.random.default_rng(24)
    grid = np.linspace(-25.0, 30.0, 3000)
    for x in rng.normal(size=(20, 4)):
        dens = model(grid, np.tile(x, (grid.shape[0], 1)))
        assert abs(np.trapezoid(dens, grid) - 1.0) < 0.012  # floor adds ~5e-3 mass


def test_pi_d_floor(data_small):
    model = fit_pi_d(data_small, NuisanceSpec("pi_d", "linear"))
    far = model(np.full(4, 1e3), data_small.x_treated[:4])
    np.testing.assert_array_equal(far, DENSITY_FLOOR)


def test_pi_d_constant_dose_errors():
    rng = np.random.default_rng(25)
    n = 60
    x = rng.normal(size=(n, 4))
    a = np.zeros(n, dtype=bool)
    a[:30] = True
    data = TwoPeriodDataset.from_arrays(
        x=x, a=a, dose=np.full(30, 2.0), y0=np.zeros(n), y1=np.ones(n)
    )
    with pytest.raises(FitError):
        fit_pi_d(data, NuisanceSpec("pi_d", "linear"))


def test_pi_d_needs_enough_treated():
    rng = np.random.default_rng(26)
    n = 20
    x = rng.normal(size=(n, 4))
    a = np.zeros(n, dtype=bool)
    a[:5] = True
    data = TwoPeriodDataset.from_arrays(
        x=x, a=a, dose=rng.normal(size=5), y0=np.zeros(n), y1=np.ones(n)
    )
    with pytest.raises(FitError):
        fit_pi_d(data, NuisanceSpec("pi_d", "linear"))


# ---------------------------------------------------------------- mu1 / mu0


def test_mu1_zero_response_is_zero_function(data_small):
    flat = TwoPeriodDataset.from_arrays(
        x=data_small.x,
        a=data_small.a,
        dose=data_small.dose,
        y0=data_small.y0,
        y1=data_small.y0,  # zero trend everywhere
    )
    model = fit_mu1(flat, NuisanceSpec("mu1", "linear", dose_powers=(1, 3), dose_interactions=(0, 2)))
    rng = np.random.default_rng(27)
    vals = model(rng.uniform(0, 5, 30), rng.normal(size=(30, 4)))
    assert np.max(np.abs(vals)) < 1e-10


def test_mu1_recovers_cubic_dose_coefficient(data_big):
    spec = NuisanceSpec("mu1", "linear", dose_powers=(1, 3), dose_interactions=(0, 2))
    model = fit_mu1(data_big, spec)
    design = model.design(data_big.dose, data_big.x_treated)
    trend_t, _ = data_big.split(data_big.trend)
    resid = trend_t - design @ model.coefficients
    sigma2 = resid @ resid / (design.shape[0] - design.shape[1])
    cov = sigma2 * np.linalg.inv(design.T @ design)
    # column order: [1, x1..x4, d, d^3, d*x1, d*x3]
    idx = 6
    assert abs(model.coefficients[idx] - (-0.003)) < 3 * np.sqrt(cov[idx, idx])


def test_mu1_kang_schafer_lowers_r2(data_big):
    trend_t, _ = data_big.split(data_big.trend)

    def r2(spec):
        model = fit_mu1(data_big, spec)
        pred = model(data_big.dose, data_big.x_treated)
        return 1 - np.sum((trend_t - pred) ** 2) / np.sum((trend_t - trend_t.mean()) ** 2)

    good = r2(NuisanceSpec("mu1", "linear", "identity", dose_powers=(1, 3), dose_interactions=(0, 2)))
    bad = r2(NuisanceSpec("mu1", "linear", "kang_schafer", dose_powers=(1, 3), dose_interactions=(0, 2)))
    assert bad < good


def test_mu0_constant_trend(data_small):
    const = TwoPeriodDataset.from_arrays(
        x=data_small.x,
        a=data_small.a,
        dose=data_small.dose,
        y0=data_small.y0,
        y1=data_small.y0 + 4.5,
    )
    model = fit_mu0(const, NuisanceSpec("mu0", "linear"))
    rng = np.random.default_rng(28)
    np.testing.assert_allclose(model(rng.normal(size=(20, 4))), 4.5, atol=1e-10)


def test_mu0_recovers_lambda0_slope(data_big):
    model = fit_mu0(data_big, NuisanceSpec("mu0", "linear"))
    design = model.design.build(data_big.x_control)
    _, trend_c = data_big.split(data_big.trend)
    resid = trend_c - design @ model.coefficients
    sigma2 = resid @ resid / (design.shape[0] - design.shape[1])
    cov = sigma2 * np.linalg.inv(design.T @ design)
    assert abs(model.coefficients[1] - (-1.0)) < 3 * np.sqrt(cov[1, 1])


def test_mu0_needs_controls():
    rng = np.random.default_rng(29)
    n = 30
    a = np.ones(n, dtype=bool)
    a[-2:] = False
    data = TwoPeriodDataset.from_arrays(
        x=rng.normal(size=(n, 4)), a=a, dose=rng.normal(3, 1, n - 2), y0=np.zeros(n), y1=np.ones(n)
    )
    with pytest.raises(FitError):
        fit_mu0(data, NuisanceSpec("mu0", "linear"))


def test_group_discipline_by_mutation(data_small):
    """Perturbing the excluded group leaves each fit bitwise unchanged."""
    spec_mu1 = NuisanceSpec("mu1", "linear", dose_powers=(1, 3), dose_interactions=(0, 2))
    mu1_before = fit_mu1(data_small, spec_mu1).coefficients
    pi_d_before = fit_pi_d(data_small, NuisanceSpec("pi_d", "linear")).mean_coef
    mu0_before = fit_mu0(data_small, NuisanceSpec("mu0", "linear")).coefficients

    y1_ctrl_shift = np.where(data_small.a, data_small.y1, data_small.y1 + 100.0)
    ctrl_mutated = TwoPeriodDataset.from_arrays(
        x=data_small.x, a=data_small.a, dose=data_small.dose, y0=data_small.y0, y1=y1_ctrl_shift
    )
    np.testing.assert_array_equal(fit_mu1(ctrl_mutated, spec_mu1).coefficients, mu1_before)
    np.testing.assert_array_equal(
        fit_pi_d(ctrl_mutated, NuisanceSpec("pi_d", "linear")).mean_coef, pi_d_before
    )

    y1_treat_shift = np.where(data_small.a, data_small.y1 - 55.0, data_small.y1)
    treat_mutated = TwoPeriodDataset.from_arrays(
        x=data_small.x, a=data_small.a, dose=data_small.dose, y0=data_small.y0, y1=y1_treat_shift
    )
    np.testing.assert_array_equal(
        fit_mu0(treat_mutated, NuisanceSpec("mu0", "linear")).coefficients, mu0_before
    )


def test_flexible_additive_learners_fit(data_small):
    pi_a = fit_pi_a(data_small, NuisanceSpec("pi_a", "flexible-additive"))
    assert np.all((pi_a(data_small.x) > 0) & (pi_a(data_small.x) < 1))
    mu1 = fit_mu1(data_small, NuisanceSpec("mu1", "flexible-additive"))
    trend_t, _ = data_small.split(data_small.trend)
    pred = mu1(data_small.dose, data_small.x_treated)
    assert np.corrcoef(pred, trend_t)[0, 1] > 0.5


# ---------------------------------------------------------------- marginalize


def test_marginalize_covariate_free_collapse(data_small):
    flat = TwoPeriodDataset.from_arrays(
        x=data_small.x,
        a=data_small.a,
        dose=data_small.dose,
        y0=data_small.y0,
        y1=data_small.y0 + np.where(data_small.a, 0.0, 0.0),
    )
    # force mu1 to depend on the dose only
    model = fit_mu1(
        TwoPeriodDataset.from_arrays(
            x=data_small.x,
            a=data_small.a,
            dose=data_small.dose,
            y0=data_small.y0,
            y1=data_small.y0 + np.where(data_small.a, 1.0, 0.0),
        ),
        NuisanceSpec("mu1", "linear"),
    )
    zeroed = model.with_coefficients(
        np.concatenate([[2.0], np.zeros(4), [0.5]])  # 2 + 0.5 d, no covariates
    )
    grid = np.linspace(0.0, 5.0, 11)
    m_curve, _ = marginalize(zeroed, None, flat, grid)
    np.testing.assert_allclose(m_curve(grid), 2.0 + 0.5 * grid, atol=1e-12)


def test_marginalize_single_treated_unit(data_small):
    models = fit_nuisances(data_small, default_specs(), which=("pi_d", "mu1"))
    rng = np.random.default_rng(30)
    x = rng.normal(size=(3, 4))
    tiny = TwoPeriodDataset.from_arrays(
        x=x, a=np.array([True, False, False]), dose=np.array([2.2]), y0=np.zeros(3), y1=np.ones(3)
    )
    grid = np.linspace(1.0, 4.0, 7)
    m_curve, f_curve = marginalize(models.mu1, models.pi_d, tiny, grid)
    np.testing.assert_allclose(m_curve(grid), models.mu1(grid, np.tile(x[0], (7, 1))), atol=1e-12)
    # f interpolates between its own evenly spaced nodes, pi_d between the
    # KDE table's, so one unit's f is its pi_d to O(step^2): measured 1.1e-6.
    np.testing.assert_allclose(f_curve(grid), models.pi_d(grid, np.tile(x[0], (7, 1))), rtol=1e-5, atol=0)


def test_marginalize_matches_loop_oracle():
    data = generate_scenario_data(120, stream_seed(100, 2, 0))
    sub_idx = np.concatenate([np.nonzero(data.a)[0][:50], np.nonzero(~data.a)[0][:20]])
    sub = TwoPeriodDataset.from_arrays(
        x=data.x[sub_idx],
        a=data.a[sub_idx],
        dose=data.dose[:50],
        y0=data.y0[sub_idx],
        y1=data.y1[sub_idx],
    )
    models = fit_nuisances(sub, default_specs(), which=("pi_d", "mu1"))
    grid = default_dose_grid(sub.dose, size=9)
    m_curve, f_curve = marginalize(models.mu1, models.pi_d, sub, grid)
    x_t = sub.x_treated
    pi_d = models.pi_d

    def unfloored(d0, x):
        mu, s = pi_d.location_scale(x)
        return float(np.interp((d0 - mu[0]) / s[0], pi_d.table_x, pi_d.table_y)) / s[0]

    f_gap = 0.0
    for d0 in grid:
        m_loop = np.mean([float(models.mu1(d0, x_t[i][None, :])[0]) for i in range(50)])
        f_loop = max(np.mean([unfloored(d0, x_t[i][None, :]) for i in range(50)]), DENSITY_FLOOR)
        assert abs(float(m_curve(d0)) - m_loop) < 1e-12
        f_gap = max(f_gap, abs(float(f_curve(d0)) - f_loop))
    # f is the binned mixture on evenly spaced nodes, interpolated linearly
    # between them; the mean of the unfloored pi_d, floored once, is its
    # exact value (docs/DECISIONS.md, D4).
    assert f_gap <= 1e-5 * np.max(f_curve.y)


def test_marginal_density_is_a_mixture(data_small):
    models = fit_nuisances(data_small, default_specs(), which=("pi_d", "mu1"))
    grid = models.dose_nodes
    per_unit_min = np.full(grid.shape[0], np.inf)
    per_unit_max = np.full(grid.shape[0], -np.inf)
    for i in range(data_small.n_treated):
        vals = models.pi_d(grid, np.tile(data_small.x_treated[i], (grid.shape[0], 1)))
        per_unit_min = np.minimum(per_unit_min, vals)
        per_unit_max = np.maximum(per_unit_max, vals)
    f_vals = models.f_marginal(grid)
    assert np.all(f_vals >= per_unit_min - 1e-12)
    assert np.all(f_vals <= per_unit_max + 1e-12)
    assert np.all(f_vals >= DENSITY_FLOOR)


def test_default_dose_grid_percentiles():
    rng = np.random.default_rng(31)
    doses = rng.normal(3, 2, 1000)
    grid = default_dose_grid(doses)
    assert grid.shape == (50,)
    assert abs(grid[0] - np.percentile(doses, 10)) < 1e-12
    assert abs(grid[-1] - np.percentile(doses, 90)) < 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        NuisanceSpec("pi_a", "linear")
    with pytest.raises(ValueError):
        NuisanceSpec("mu1", "linear", "unknown_map")
    with pytest.raises(TypeError):
        NuisanceSpec("mu0", "linear", fit_mu0_on="pooled")
    with pytest.raises(ValueError):
        default_specs({"mu7"})
