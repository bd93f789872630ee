"""Effect-curve estimators: decompositions, invariances, determinism."""

import json

import numpy as np
import pytest
from sandwich_reference import local_linear_curve

from dataclasses import replace

from dosedid import curves, nuisance
from dosedid.curves import (
    CONTROL_NEEDS,
    DOSE_NEEDS,
    METHODS,
    EstimatorConfig,
    dose_sides,
    estimate_curve,
    estimate_curves,
    robust_select_bandwidth,
    write_curve,
)
from dosedid.data import TwoPeriodDataset
from dosedid.errors import BandwidthError, DoseDidError, EstimationError, ExtrapolationError, FitError
from dosedid.inference import bootstrap_weights
from dosedid.numeric import WindowedMoments, default_bandwidth_grid, local_linear_fit
from dosedid.nuisance import (
    RESIDUAL_VAR_FLOOR,
    NuisanceSpec,
    default_dose_grid,
    default_specs,
    fit_mu0,
    fit_mu1,
    fit_nuisances,
    fit_pi_a,
    fit_pi_d,
    marginalize,
)
from dosedid.pseudo import compute_xi_terms
from dosedid.simulation import (
    generate_null_data,
    generate_scenario_data,
    stream_seed,
)

SPECS = default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))


@pytest.fixture(scope="module")
def data():
    return generate_scenario_data(800, stream_seed(300, 0, 0))


def dose_side(data, method, models, grid, bandwidth=None, on_out_of_range="error"):
    """``dose_sides`` with one job: its ``(theta, bandwidth, diagnostics)``."""
    side = dose_sides(data, {method: (method, models)}, grid, bandwidth, on_out_of_range)[method]
    if isinstance(side, DoseDidError):
        raise side
    return side[:3]


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


def test_mr_parametric_basis_is_configurable(data, monkeypatch):
    cubic = estimate_curve(data, "MR_PARAMETRIC", specs=SPECS)
    monkeypatch.setattr(curves, "PARAMETRIC_BASIS", (1,))
    linear = estimate_curve(data, "MR_PARAMETRIC", specs=SPECS)
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


@pytest.mark.parametrize("method", METHODS)
def test_doubling_the_weights_leaves_the_curve(data, method):
    """Every fit and mean is scale-free in the dataset's weights: doubling
    unit or bootstrap weights keeps the bandwidth and moves psi by rounding
    alone (at most 5.9e-14 sd(psi) on this dataset)."""
    for w in (np.ones(data.n), bootstrap_weights(data.a, 301, 0)):
        once = estimate_curve(replace(data, weight=w), method, specs=SPECS)
        twice = estimate_curve(replace(data, weight=2.0 * w), method, specs=SPECS)
        assert twice.bandwidth == once.bandwidth
        assert np.max(np.abs(twice.psi - once.psi)) <= 1e-10 * np.std(once.psi)


def test_integer_weights_equal_duplicated_rows(data):
    """The dataset's weight reaches every fit and mean: under integer
    weights the four nuisance fits, and OR, NAIVE and TWFE at a fixed
    bandwidth, equal their fits on the rows repeated that many times (to
    1.7e-12 sd(psi) when measured). MR, MR_PARAMETRIC and IPW read pi_d's
    kernel density and the LOO grid, whose bandwidth rules count rows."""
    counts = np.random.default_rng(304).integers(1, 4, data.n)
    weighted = replace(data, weight=counts.astype(float))
    repeated = TwoPeriodDataset.from_arrays(
        x=np.repeat(data.x, counts, axis=0),
        a=np.repeat(data.a, counts),
        dose=np.repeat(data.dose, counts[data.a]),
        y0=np.repeat(data.y0, counts),
        y1=np.repeat(data.y1, counts),
    )
    for name, fit in (("pi_a", fit_pi_a), ("mu1", fit_mu1), ("mu0", fit_mu0)):
        np.testing.assert_allclose(
            fit(weighted, SPECS[name]).coefficients, fit(repeated, SPECS[name]).coefficients, rtol=1e-10, atol=1e-12
        )
    pi_d, pi_d_repeated = fit_pi_d(weighted, SPECS["pi_d"]), fit_pi_d(repeated, SPECS["pi_d"])
    np.testing.assert_allclose(pi_d.mean_coef, pi_d_repeated.mean_coef, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(pi_d.resid_coef, pi_d_repeated.resid_coef, rtol=1e-10, atol=1e-12)
    grid = default_dose_grid(data.dose)
    for method in ("OR", "NAIVE", "TWFE"):
        psi = estimate_curve(weighted, method, specs=SPECS, grid=grid, bandwidth=1.5).psi
        psi_repeated = estimate_curve(repeated, method, specs=SPECS, grid=grid, bandwidth=1.5).psi
        assert np.max(np.abs(psi - psi_repeated)) <= 1e-10 * np.std(psi_repeated), method


@pytest.mark.parametrize("grid", [[], [3.0, 1.0, 2.0], [1.0, 1.0], [0.5, np.nan], [[1.0, 2.0]]])
def test_bad_grid_is_rejected_before_any_fit(data, monkeypatch, grid):
    fits = []
    monkeypatch.setattr("dosedid.curves.fit_nuisances", lambda *a, **k: fits.append(a))
    with pytest.raises(EstimationError, match="evaluation grid"):
        estimate_curve(data, "MR", specs=SPECS, grid=grid)
    assert fits == []


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
    xi, _ = compute_xi_terms(data, models)
    grid = est.grid
    f_vals = models.f_marginal(grid)
    mass = np.trapezoid(f_vals, grid)
    smoothed_mean = np.trapezoid(est.theta_curve * f_vals, grid) / mass
    in_grid = (data.dose >= grid[0]) & (data.dose <= grid[-1])
    assert abs(smoothed_mean - xi[in_grid].mean()) < 0.05


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


# ---------------------------------------------------------------- smoother


@pytest.mark.parametrize("n", [500, 1000, 5000, 20000])
def test_local_linear_curve_matches_per_point_fit_on_mr_pseudo_outcomes(n):
    # The prefix-sum smoother against one literal WLS solve per grid point,
    # on MR pseudo-outcomes, unweighted and under bootstrap weights, at the
    # LOO bandwidth and at the narrowest default candidate (where the
    # prefix-sum differences cancel most): |dtheta| <= 1e-6 sd(psi-hat).
    data = generate_scenario_data(n, stream_seed(302, n, 0))
    grid = default_dose_grid(data.dose)
    candidates = default_bandwidth_grid(data.dose)
    for w in (None, bootstrap_weights(data.a, 7, 0)):
        weighted = data if w is None else replace(data, weight=w)
        models = fit_nuisances(weighted, SPECS, dose_grid=grid)
        xi, _ = compute_xi_terms(weighted, models)
        wt = None if w is None else data.split(w)[0]
        window = WindowedMoments(data.dose, xi, np.ones(data.dose.shape) if wt is None else wt)
        for h in (robust_select_bandwidth(window, candidates), float(candidates[0])):
            exact = np.array([local_linear_fit(data.dose, xi, h, float(d), wt)[0] for d in grid])
            gap = np.max(np.abs(local_linear_curve(data.dose, xi, grid, h, wt) - exact))
            assert gap <= 1e-6 * np.std(exact), (w is None, h, gap)


def test_robust_select_bandwidth_extends_a_target_stack_as_each_row_alone():
    # An isolated extreme dose has no partner inside the widest default
    # candidate: every row takes the same extension of the grid.
    rng = np.random.default_rng(305)
    dose = np.append(rng.uniform(0.0, 1.0, 59), 25.0)
    ys = np.stack([rng.normal(size=60), 3.0 * dose + rng.normal(size=60), np.sin(dose)])
    w = rng.uniform(0.5, 2.0, 60)
    grid = default_bandwidth_grid(dose)
    alone = [robust_select_bandwidth(WindowedMoments(dose, y, w), grid) for y in ys]
    stacked = robust_select_bandwidth(WindowedMoments(dose, ys, w), grid)
    assert stacked.tolist() == alone
    assert min(alone) > np.max(grid)


def test_local_linear_curve_error_carries_first_infeasible_delta():
    x = np.array([0.0, 0.1, 0.2, 5.0, 9.0, 9.1])
    # 3.0 has no point within h, 5.0 one; the first of them is reported.
    with pytest.raises(BandwidthError) as err:
        local_linear_curve(x, x, np.array([0.1, 3.0, 5.0, 9.05]), 0.5)
    assert err.value.delta == 3.0


def test_local_linear_curve_rejects_nonfinite_values_and_negative_weights():
    x = np.linspace(0.0, 1.0, 21)
    for bad in (np.nan, np.inf):
        y = x.copy()
        y[0] = bad  # outside the only window: checked up front, not per window
        with pytest.raises(FitError):
            local_linear_curve(x, y, np.array([0.9]), 0.05)
    w = np.ones(21)
    w[10] = -1.0
    with pytest.raises(FitError):
        local_linear_curve(x, x, np.array([0.5]), 0.3, w)


def test_local_linear_curve_tied_window_raises():
    rng = np.random.default_rng(303)
    x = np.concatenate([rng.uniform(0.0, 4.0, 30), np.full(4, 6.0), rng.uniform(8.0, 10.0, 20)])
    y = rng.normal(size=x.shape[0]) + 5.0
    w = rng.uniform(0.5, 2.0, x.shape[0])
    # Windows at 6.0 and 6.3 hold only the four tied points, where no line
    # is identified; the first of them is reported, by both paths.
    grid = np.array([2.0, 6.0, 6.3, 9.0])
    with pytest.raises(BandwidthError, match="only tied doses") as err:
        local_linear_curve(x, y, grid, 0.9, w)
    assert err.value.delta == 6.0
    for d in (6.0, 6.3):
        with pytest.raises(BandwidthError, match="only tied doses"):
            local_linear_fit(x, y, 0.9, d, w)
    # Untied windows are unaffected.
    untied = np.array([2.0, 9.0])
    exact = np.array([local_linear_fit(x, y, 0.9, float(d), w)[0] for d in untied])
    np.testing.assert_allclose(local_linear_curve(x, y, untied, 0.9, w), exact, rtol=1e-12)


def _trend_data(dose, trend_t, n_control=20):
    n_t = dose.shape[0]
    n = n_t + n_control
    return TwoPeriodDataset.from_arrays(
        x=np.zeros((n, 1)),
        a=np.arange(n) < n_t,
        dose=dose,
        y0=np.zeros(n),
        y1=np.concatenate([trend_t, np.zeros(n_control)]),
    )


def test_bandwidth_diagnostics_mark_grid_edge_and_extension(monkeypatch):
    rng = np.random.default_rng(304)
    dose = rng.uniform(0.0, 10.0, 80)
    grid = np.linspace(2.0, 8.0, 7)
    candidates = np.array([1.0, 2.0, 20.0])
    # Noiseless lines are fitted exactly at every candidate: ties go low.
    line = 1.0 + 2.0 * dose
    noisy_trend = line + rng.normal(size=80)
    with monkeypatch.context() as patch:
        patch.setattr(curves, "default_bandwidth_grid", lambda doses: candidates)
        exact = estimate_curve(_trend_data(dose, line), "NAIVE", grid=grid)
        # A noisy line is best fitted by the widest window offered.
        noisy = estimate_curve(_trend_data(dose, noisy_trend), "NAIVE", grid=grid)
    assert exact.bandwidth == 1.0 and exact.diagnostics["bandwidth_at_grid_edge"] == "low"
    assert noisy.bandwidth == 20.0 and noisy.diagnostics["bandwidth_at_grid_edge"] == "high"
    assert not noisy.diagnostics["bandwidth_extended"]
    # An isolated extreme dose has no partner inside the widest candidate.
    isolated = np.append(rng.uniform(0.0, 1.0, 59), 25.0)
    wide = estimate_curve(_trend_data(isolated, rng.normal(size=60)), "NAIVE", grid=np.linspace(0.2, 0.8, 5))
    assert wide.diagnostics["bandwidth_extended"]
    assert wide.diagnostics["bandwidth_at_grid_edge"] == "high"
    assert wide.bandwidth > np.max(default_bandwidth_grid(isolated))
    # A fixed bandwidth is not selected, so it has no grid to sit in.
    fixed = estimate_curve(_trend_data(dose, line), "NAIVE", grid=grid, bandwidth=1.0)
    assert "bandwidth_at_grid_edge" not in fixed.diagnostics


def test_dose_weight_diagnostics(data):
    """MR, MR_PARAMETRIC and IPW report the marginals' node count, their
    DENSITY_FLOOR hits and the dose weights' maximum and Kish ESS; the
    methods reading mu1 report whether its fit was ridged. The nodes are
    the same evenly spaced set at every n."""
    for method in ("MR", "MR_PARAMETRIC", "IPW"):
        diag = estimate_curve(data, method, specs=SPECS).diagnostics
        assert diag["marginal_nodes"] == nuisance._MARGINAL_NODES
        assert diag["f_floor_hits"] == 0 and diag["pi_d_floor_hits"] == 0
        assert diag["w1_max"] >= 1.0
        assert 1.0 <= diag["w1_ess"] <= data.n_treated
        assert diag.get("mu1_ridged") is (False if method != "IPW" else None)
    assert estimate_curve(data, "OR", specs=SPECS).diagnostics["mu1_ridged"] is False
    assert "w1_ess" not in estimate_curve(data, "NAIVE").diagnostics


def test_floor_hits_are_counted(data):
    """With sdev 1e4 and a unit kernel bandwidth on the standardized
    residuals, pi_d is about 0.4 / 1e4 = 4e-5 everywhere, so every
    pi_d(D_i | X_i), and f at every treated dose, sits at DENSITY_FLOOR."""
    specs = {**SPECS, "pi_d": NuisanceSpec("pi_d", "linear", kde_bandwidth=1.0)}
    models = fit_nuisances(data, specs, which=("pi_d", "mu1"))
    wide_pi_d = models.pi_d.with_parameters(
        np.concatenate([[3.0], np.zeros(4)]), np.concatenate([[1e8], np.zeros(4)]), data.dose, data.x_treated
    )
    m_curve, f_curve = marginalize(models.mu1, wide_pi_d, data, models.dose_nodes)
    wide = replace(models, pi_d=wide_pi_d, m_marginal=m_curve, f_marginal=f_curve)
    grid = default_dose_grid(data.dose)
    _, _, diag = dose_side(data, "MR_PARAMETRIC", wide, grid)
    assert diag["f_floor_hits"] == data.n_treated
    assert diag["pi_d_floor_hits"] == data.n_treated
    _, _, diag = dose_side(data, "MR_PARAMETRIC", models, grid)
    assert diag["f_floor_hits"] == 0 and diag["pi_d_floor_hits"] == 0


class _Counted:
    """A model whose calls are counted; every attribute is the model's."""

    def __init__(self, model, name, calls):
        self._model, self._name, self._calls = model, name, calls

    def __call__(self, *args):
        self._calls.append(self._name)
        return self._model(*args)

    def density_and_floor_hits(self, *args):
        self._calls.append(self._name)
        return self._model.density_and_floor_hits(*args)

    def __getattr__(self, attr):
        return getattr(self._model, attr)


@pytest.mark.parametrize("method", ["MR", "MR_PARAMETRIC", "IPW"])
def test_dose_side_evaluates_f_and_pi_d_once(data, method):
    """The weight-health diagnostics reuse the f and pi_d values the dose
    side forms its weights from."""
    models = fit_nuisances(data, SPECS, which=("pi_d", "mu1"))
    calls = []
    counted = replace(
        models, f_marginal=_Counted(models.f_marginal, "f", calls), pi_d=_Counted(models.pi_d, "pi_d", calls)
    )
    grid = default_dose_grid(data.dose)
    theta, h, diag = dose_side(data, method, counted, grid)
    assert sorted(calls) == ["f", "pi_d"]
    expected = dose_side(data, method, models, grid)
    assert theta.tobytes() == expected[0].tobytes() and h == expected[1] and diag == expected[2]


@pytest.mark.parametrize("method", ["MR", "MR_PARAMETRIC", "IPW"])
def test_dose_outside_the_node_range_follows_the_policy(method):
    """Every method that reads f raises under "error", naming the unit of a
    treated dose beyond the marginals' node range, and counts it under
    "clamp"."""
    data = generate_scenario_data(600, 7)
    models = fit_nuisances(data, SPECS, which=("pi_d", "mu1"))
    dose = data.dose.copy()
    dose[0] = models.f_marginal.x[-1] + 5.0
    shifted = replace(data, dose=dose)
    grid = default_dose_grid(data.dose)
    with pytest.raises(ExtrapolationError, match="unit 'u0'"):
        dose_side(shifted, method, models, grid, bandwidth=1.0)
    _, _, diag = dose_side(shifted, method, models, grid, bandwidth=1.0, on_out_of_range="clamp")
    assert diag["clamped"] == 1


def test_pi_d_variance_floor_hits_are_counted():
    """pi_d's linear squared-residual model predicts a variance below
    RESIDUAL_VAR_FLOOR for at least one treated unit under bootstrap
    replicate 0's weights on this dataset, and for none unweighted."""
    data = generate_scenario_data(500, 41)
    point = estimate_curve(data, "MR", specs=SPECS)
    assert point.diagnostics["pi_d_var_floor_hits"] == 0
    weighted = estimate_curve(
        replace(data, weight=bootstrap_weights(data.a, 42, 0)),
        "MR",
        specs=SPECS,
        grid=point.grid,
        bandwidth=point.bandwidth,
        on_out_of_range="clamp",
    )
    assert weighted.diagnostics["pi_d_var_floor_hits"] >= 1
    # A constant variance model just below the floor hits every unit; one
    # just above it hits none.
    pi_d = fit_nuisances(data, SPECS, which=("pi_d",)).pi_d
    for variance, hits in ((0.5 * RESIDUAL_VAR_FLOOR, data.n_treated), (2.0 * RESIDUAL_VAR_FLOOR, 0)):
        constant = replace(pi_d, resid_coef=np.concatenate([[variance], np.zeros(4)]))
        assert constant.density_and_floor_hits(data.dose, data.x_treated)[1] == hits


def test_flat_dose_density_gives_full_effective_sample(data):
    models = fit_nuisances(data, SPECS, which=("pi_d", "mu1"))
    flat_pi_d = models.pi_d.with_parameters(
        np.concatenate([[3.0], np.zeros(4)]), np.concatenate([[4.0], np.zeros(4)]), data.dose, data.x_treated
    )
    m_curve, f_curve = marginalize(models.mu1, flat_pi_d, data, models.dose_nodes)
    flat = replace(models, pi_d=flat_pi_d, m_marginal=m_curve, f_marginal=f_curve)
    grid = default_dose_grid(data.dose)
    _, _, diag = dose_side(data, "MR_PARAMETRIC", flat, grid)
    # f and pi_d interpolate on different evenly spaced nodes, so w1 is one
    # to O(step^2): measured 3.6e-6.
    assert diag["w1_ess"] == pytest.approx(data.n_treated, rel=1e-10)
    assert diag["w1_max"] == pytest.approx(1.0, rel=5e-5)


@pytest.mark.parametrize("bandwidth", [1.0, None])
def test_unit_order_leaves_every_curve(bandwidth):
    """Permuting the units (ids included) moves every method's curve, and a
    leave-one-out bandwidth, by rounding only: measured 1.7e-14 relative."""
    data = generate_scenario_data(600, 7)
    order = np.random.default_rng(0).permutation(data.n)
    rank = np.cumsum(data.a) - 1
    shuffled = TwoPeriodDataset(
        ids=tuple(data.ids[i] for i in order),
        x=data.x[order],
        a=data.a[order],
        dose=data.dose[rank[order][data.a[order]]],
        y0=data.y0[order],
        y1=data.y1[order],
        covariate_names=data.covariate_names,
    )
    grid = default_dose_grid(data.dose)
    for method in METHODS:
        est = estimate_curve(data, method, specs=SPECS, grid=grid, bandwidth=bandwidth)
        moved = estimate_curve(shuffled, method, specs=SPECS, grid=grid, bandwidth=bandwidth)
        assert np.max(np.abs(moved.psi - est.psi)) <= 1e-12 * np.max(np.abs(est.psi)), method
        if est.bandwidth is not None:
            assert abs(moved.bandwidth - est.bandwidth) <= 1e-12 * est.bandwidth, method


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("bandwidth", [1.0, None])
def test_affine_outcome_rescaling_scales_psi(seed, bandwidth):
    """Mapping both outcomes to 3 + b y, b = -2.5, multiplies every method's
    psi by b and leaves a leave-one-out bandwidth where it was (measured:
    4.0e-14 relative, equal bandwidths). The six jobs of one
    ``estimate_curves`` call are each ``estimate_curve``'s estimate
    bitwise."""
    data = generate_scenario_data(600, seed)
    b = -2.5
    scaled = replace(data, y0=3.0 + b * data.y0, y1=3.0 + b * data.y1)
    grid = default_dose_grid(data.dose)
    bank = nuisance.ModelBank(data, grid)
    jobs = {method: (method, bank.models(SPECS, DOSE_NEEDS[method] + CONTROL_NEEDS[method])) for method in METHODS}
    together = estimate_curves(data, jobs, grid, bandwidth)
    for method in METHODS:
        est = estimate_curve(data, method, specs=SPECS, grid=grid, bandwidth=bandwidth)
        moved = estimate_curve(scaled, method, specs=SPECS, grid=grid, bandwidth=bandwidth)
        assert np.max(np.abs(moved.psi - b * est.psi)) <= 1e-12 * np.max(np.abs(b * est.psi)), method
        assert moved.bandwidth == est.bandwidth, method
        one = together[method]
        assert one.psi.tobytes() == est.psi.tobytes() and one.theta_curve.tobytes() == est.theta_curve.tobytes()
        assert (one.theta0, one.bandwidth) == (est.theta0, est.bandwidth), method
        coefficients = est.diagnostics.pop("twfe_coefficients", np.zeros(0))
        assert one.diagnostics.pop("twfe_coefficients", np.zeros(0)).tobytes() == coefficients.tobytes()
        assert one.diagnostics == est.diagnostics, method


def test_constant_treated_dose_is_a_fit_error(data):
    """A constant treated dose has no default grid: the estimator raises the
    FitError that fit_pi_d raises for the same condition, inside the
    package's error hierarchy, for every method."""
    constant = replace(data, dose=np.full(data.n_treated, 2.0))
    with pytest.raises(FitError, match="degenerate dose distribution"):
        default_dose_grid(constant.dose)
    for method in METHODS:
        with pytest.raises(FitError, match="degenerate dose distribution"):
            estimate_curve(constant, method, specs=SPECS)


@pytest.mark.parametrize("method", METHODS)
def test_single_run_values_are_python_scalars(data, method):
    """A single run's theta0 and every diagnostic but TWFE's coefficient
    vector are plain Python values (no numpy scalar or array), so that the
    manifest writes them as JSON numbers and booleans."""
    est = estimate_curve(data, method, specs=SPECS)
    values = {"theta0": est.theta0, **{k: v for k, v in est.diagnostics.items() if k != "twfe_coefficients"}}
    for name, value in values.items():
        assert value is None or type(value) in (bool, int, float, str, tuple), (name, type(value))
        assert not isinstance(value, (np.bool_, np.int64, np.ndarray)), name
    json.dumps(values)
