"""Oracle and property tests for the numerical primitives."""

import numpy as np
import pytest

from dosedid import numeric
from dosedid.errors import BandwidthError, FitError
from dosedid.numeric import (
    default_bandwidth_grid,
    epanechnikov,
    expit,
    fit_logistic,
    fit_wls,
    gaussian_kde,
    local_linear_fit,
    silverman_bandwidth,
)


def select_bandwidth(x, y, grid=None, w=None):
    """The leave-one-out choice over ``grid`` (by default
    ``default_bandwidth_grid(x)``), with unit weights by default."""
    grid = default_bandwidth_grid(x) if grid is None else grid
    return numeric.WindowedMoments(x, y, np.ones(x.shape) if w is None else w).select_bandwidth(grid)


# ---------------------------------------------------------------- kernel


def test_kernel_integrates_to_one():
    u = np.linspace(-1.0, 1.0, 100_001)
    assert abs(np.trapezoid(epanechnikov(u), u) - 1.0) < 1e-8


def test_kernel_symmetric_and_compact():
    rng = np.random.default_rng(0)
    u = rng.uniform(-2.0, 2.0, 1000)
    np.testing.assert_allclose(epanechnikov(u), epanechnikov(-u), rtol=0, atol=0)
    assert np.all(epanechnikov(u[np.abs(u) > 1.0]) == 0.0)
    assert np.all(epanechnikov(u) >= 0.0)


# ---------------------------------------------------------------- fit_wls


def test_wls_intercept_only_is_mean():
    rng = np.random.default_rng(1)
    y = rng.normal(size=40)
    fit = fit_wls(np.ones((40, 1)), y, np.ones(40))
    assert abs(fit.coefficients[0] - y.mean()) < 1e-12


def test_wls_exact_line():
    rng = np.random.default_rng(2)
    x = rng.uniform(-5, 5, 30)
    y = 2.0 + 3.0 * x
    w = rng.uniform(0.5, 2.0, 30)
    fit = fit_wls(np.column_stack([np.ones(30), x]), y, w)
    np.testing.assert_allclose(fit.coefficients, [2.0, 3.0], atol=1e-10)


def test_wls_matches_normal_equation_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    w = rng.uniform(0.1, 3.0, 50)
    fit = fit_wls(x, y, w)
    # independent brute-force solve
    xtwx = np.zeros((3, 3))
    xtwy = np.zeros(3)
    for i in range(50):
        xtwx += w[i] * np.outer(x[i], x[i])
        xtwy += w[i] * x[i] * y[i]
    oracle = np.linalg.inv(xtwx) @ xtwy
    np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-8)


def test_wls_residuals_weight_orthogonal():
    rng = np.random.default_rng(4)
    x = np.column_stack([np.ones(80), rng.normal(size=(80, 2))])
    y = rng.normal(size=80) * 5.0
    w = rng.uniform(0.0, 2.0, 80)
    fit = fit_wls(x, y, w)
    resid = y - fit.predict(x)
    for j in range(x.shape[1]):
        scale = np.sum(np.abs(w * y * x[:, j])) + 1.0
        assert abs(np.sum(w * resid * x[:, j])) < 1e-7 * scale


def test_wls_singular_design_gets_ridge_flag():
    x = np.column_stack([np.ones(20), np.ones(20)])  # perfectly collinear
    y = np.linspace(0, 1, 20)
    fit = fit_wls(x, y, np.ones(20))
    assert fit.ridged
    assert np.all(np.isfinite(fit.coefficients))


def test_wls_stack_ridges_only_the_singular_row():
    """Each row of a weight stack is the fit on that row alone; a row whose
    normal matrix is singular takes the ridge jitter on its own."""
    rng = np.random.default_rng(15)
    x = np.column_stack([np.ones(30), rng.normal(size=30), rng.normal(size=30)])
    x[:10, 2] = x[:10, 1]
    y = rng.normal(size=30)
    weights = rng.uniform(0.5, 2.0, size=(3, 30))
    weights[1, 10:] = 0.0  # row 1 sees only the units whose two columns coincide
    stacked = fit_wls(x, y, weights)
    singles = [fit_wls(x, y, w) for w in weights]
    assert [fit.ridged for fit in singles] == [False, True, False]
    np.testing.assert_array_equal(stacked.ridged, [False, True, False])
    for row, single in zip(stacked.coefficients, singles):
        np.testing.assert_array_equal(row, single.coefficients)


def test_wls_errors():
    with pytest.raises(FitError):
        fit_wls(np.ones((5, 1)), np.ones(4), np.ones(5))
    with pytest.raises(FitError):
        fit_wls(np.ones((5, 1)), np.ones(5), np.zeros(5))


# ---------------------------------------------------------------- logistic


def test_logistic_intercept_only_closed_form():
    y = np.array([1.0] * 30 + [0.0] * 70)
    fit = fit_logistic(np.ones((100, 1)), y)
    assert fit.converged
    assert abs(fit.coefficients[0] - np.log(0.3 / 0.7)) < 1e-6


def test_logistic_null_slope_within_3se():
    rng = np.random.default_rng(5)
    n = 10_000
    x = rng.normal(size=n)
    y = (rng.random(n) < 0.4).astype(float)  # independent of x
    design = np.column_stack([np.ones(n), x])
    fit = fit_logistic(design, y)
    p = fit.predict_proba(design)
    info = design.T @ (design * (p * (1 - p))[:, None])
    se = np.sqrt(np.linalg.inv(info)[1, 1])
    assert abs(fit.coefficients[1]) < 3.0 * se


def test_logistic_separable_data_no_panic():
    x = np.linspace(-2, 2, 40)
    y = (x > 0).astype(float)
    fit = fit_logistic(np.column_stack([np.ones(40), x]), y)
    assert not fit.converged
    p = fit.predict_proba(np.column_stack([np.ones(3), np.array([-50.0, 0.0, 50.0])]))
    assert np.all(p >= 1e-6) and np.all(p <= 1 - 1e-6)


def test_logistic_stack_rows_stop_at_their_own_convergence():
    """Each row of a weight stack iterates until it converges alone: its
    coefficients, ``converged`` and ``iterations`` are the single fit's, here
    with a row whose weights make the data separable."""
    rng = np.random.default_rng(14)
    x = np.column_stack([np.ones(80), rng.normal(size=80)])
    y = (x[:, 1] + 0.8 * rng.normal(size=80) > 0).astype(float)
    weights = rng.exponential(size=(4, 80))
    weights[3, (y == 1) != (x[:, 1] > 0)] = 0.0  # drop every unit on the wrong side
    stacked = fit_logistic(x, y, weights)
    singles = [fit_logistic(x, y, w) for w in weights]
    assert [fit.converged for fit in singles] == [True, True, True, False]
    for row, single in enumerate(singles):
        np.testing.assert_array_equal(stacked.coefficients[row], single.coefficients)
        assert stacked.converged[row] == single.converged
        assert stacked.iterations[row] == single.iterations


def test_logistic_single_class_errors():
    with pytest.raises(FitError):
        fit_logistic(np.ones((10, 1)), np.ones(10))


# ---------------------------------------------------------------- local linear


def test_local_linear_constant_function():
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 10, 50)
    y = np.full(50, 3.7)
    for delta in (1.0, 5.0, 9.0):
        b0, b1 = local_linear_fit(x, y, 2.0, delta)
        assert abs(b0 - 3.7) < 1e-12
        assert abs(b1) < 1e-9


def test_local_linear_reproduces_lines():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 10, 60)
    y = -1.5 + 0.8 * x
    for delta in np.linspace(0.5, 9.5, 7):
        for h in (0.9, 2.0, 40.0):
            b0, _ = local_linear_fit(x, y, h, float(delta))
            assert abs(b0 - (-1.5 + 0.8 * delta)) < 1e-9


def test_local_linear_matches_direct_solve_on_cubic():
    rng = np.random.default_rng(8)
    x = rng.uniform(-2, 2, 200)
    y = x**3 - x + 0.05 * rng.normal(size=200)
    h = select_bandwidth(x, y)
    for delta in np.linspace(-1.5, 1.5, 20):
        b0, b1 = local_linear_fit(x, y, h, float(delta))
        # independent weighted-normal-equation solve
        u = (x - delta) / h
        k = np.where(np.abs(u) <= 1, 0.75 * (1 - u**2), 0.0)
        s0, s1, s2 = k.sum(), (k * u).sum(), (k * u * u).sum()
        t0, t1 = (k * y).sum(), (k * u * y).sum()
        oracle = np.linalg.solve(np.array([[s0, s1], [s1, s2]]), np.array([t0, t1]))
        assert abs(b0 - oracle[0]) < 1e-10
        assert abs(b1 - oracle[1]) < 1e-8


def test_local_linear_too_few_points_error_carries_delta():
    x = np.array([0.0, 0.1, 5.0])
    with pytest.raises(BandwidthError) as err:
        local_linear_fit(x, x, 0.05, 5.0)
    assert err.value.delta == 5.0


# ---------------------------------------------------------------- bandwidth


def test_default_bandwidth_grid_formula():
    rng = np.random.default_rng(9)
    x = rng.normal(size=400)
    grid = default_bandwidth_grid(x)
    sigma = np.std(x, ddof=1)
    scale = sigma * 400 ** (-0.2)
    assert grid.shape == (20,)
    assert abs(grid[0] - 0.5 * scale) < 1e-12
    assert abs(grid[-1] - 4.0 * scale) < 1e-12
    ratios = grid[1:] / grid[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)


def _brute_force_loo_select(x, y, grid):
    """Independent exhaustive LOO sweep: literal refits via lstsq."""
    n = x.shape[0]
    zero_tol = (1e-10 * np.max(np.abs(y))) ** 2 * n
    best_h, best_score = None, np.inf
    for h in np.unique(np.asarray(grid, dtype=float)):
        total, ok = 0.0, True
        for i in range(n):
            xi = np.delete(x, i)
            yi = np.delete(y, i)
            u = (xi - x[i]) / h
            k = np.where(np.abs(u) < 1, 0.75 * (1 - u**2), 0.0)
            if np.count_nonzero(k > 0) < 2:
                ok = False
                break
            design = np.column_stack([np.ones(xi.shape[0]), u]) * np.sqrt(k)[:, None]
            beta, *_ = np.linalg.lstsq(design, yi * np.sqrt(k), rcond=None)
            total += (y[i] - beta[0]) ** 2
        if not ok:
            continue
        if total < zero_tol:
            total = 0.0
        if total < best_score:
            best_score, best_h = total, float(h)
    return best_h


def test_select_bandwidth_matches_exhaustive_loo_oracle():
    rng = np.random.default_rng(10)
    x = np.sort(rng.uniform(0, 2 * np.pi, 100))
    y = np.sin(x) + 0.3 * rng.normal(size=100)
    grid = default_bandwidth_grid(x)
    assert select_bandwidth(x, y, grid) == _brute_force_loo_select(x, y, grid)


def test_select_bandwidth_noiseless_linear_ties_to_smallest():
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(0, 10, 80))
    y = 1.0 + 2.0 * x
    grid = np.array([1.5, 2.5, 4.0, 8.0])
    # all candidates interpolate exactly; smallest feasible one wins
    assert select_bandwidth(x, y, grid) == 1.5


def test_select_bandwidth_no_feasible_candidate():
    x = np.array([0.0, 10.0, 20.0, 30.0])
    with pytest.raises(BandwidthError):
        select_bandwidth(x, x, np.array([0.5, 1.0]))


def test_select_bandwidth_skips_infeasible_candidates():
    rng = np.random.default_rng(12)
    x = np.sort(np.concatenate([rng.uniform(0, 1, 50), [25.0, 25.3, 25.6]]))
    y = np.sin(x) + 0.1 * rng.normal(size=x.shape[0])
    grid = np.array([0.05, 0.5, 30.0])  # only the widest can cover the gap
    assert select_bandwidth(x, y, grid) == 30.0


def _stack_case(name):
    """(x, (R, n) targets, grid, weight) for one target-stack case."""
    rng = np.random.default_rng(18)
    if name == "scales":
        # Per-row zero tolerances: the tolerance of a noiseless line 1e15
        # times larger would zero every score of the small noisy row.
        x = np.sort(rng.uniform(0, 10, 120))
        noisy = np.sin(x) + 0.3 * rng.normal(size=120)
        return x, np.stack([1e-6 * noisy, 1e9 * (1.0 + 2.0 * x), 1e3 * noisy[::-1]]), default_bandwidth_grid(x), None
    if name == "line":
        # Every candidate interpolates the line: the smallest wins.
        x = np.sort(rng.uniform(0, 10, 80))
        return x, np.stack([1.0 + 2.0 * x, np.cos(x) + 0.2 * rng.normal(size=80)]), np.array([1.5, 2.5, 4.0, 8.0]), None
    if name == "infeasible":
        # Only the widest candidate covers the gap below the far cluster.
        x = np.sort(np.concatenate([rng.uniform(0, 1, 50), [25.0, 25.3, 25.6]]))
        ys = np.stack([np.sin(x), np.cos(x), x * x]) + 0.1 * rng.normal(size=(3, x.shape[0]))
        return x, ys, np.array([0.05, 0.5, 30.0]), None
    # "fallback": the zero-weight point leaves the far cluster's
    # leave-one-out windows one weighted point, a singular 2 x 2 system.
    x = np.concatenate([rng.uniform(0, 1, 40), [3.0, 3.3, 3.6]])
    w = np.ones(x.shape[0])
    w[-2] = 0.0
    ys = np.stack([np.sin(x), 5.0 * np.cos(x), -x]) + 0.1 * rng.normal(size=(3, x.shape[0]))
    return x, ys, np.array([1.0, 2.5]), w


@pytest.mark.parametrize("name", ["scales", "line", "infeasible", "fallback"])
def test_select_bandwidth_on_a_target_stack_equals_each_row_alone(monkeypatch, name):
    x, ys, grid, w = _stack_case(name)
    weight = np.ones(x.shape[0]) if w is None else w
    literal_calls = []
    original = numeric.local_linear_fit
    monkeypatch.setattr(numeric, "local_linear_fit", lambda *a, **k: literal_calls.append(a) or original(*a, **k))
    alone = [select_bandwidth(x, y, grid, w) for y in ys]
    calls_alone = len(literal_calls)
    stacked = select_bandwidth(x, ys, grid, w)
    # Each row takes the literal fit at the same windows, alone or stacked.
    assert len(literal_calls) == 2 * calls_alone
    assert all(type(h) is float for h in alone)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (ys.shape[0],)
    assert stacked.tolist() == alone
    # The scores too, candidate by candidate: bitwise, infeasible alike.
    window = numeric.WindowedMoments(x, ys, weight)
    for h in np.unique(grid):
        score = numeric._loo_score(window, float(h))
        rows = [numeric._loo_score(numeric.WindowedMoments(x, y, weight), float(h)) for y in ys]
        if score is None:
            assert rows == [None] * ys.shape[0]
        else:
            assert score.tobytes() == np.array(rows).tobytes()
    if name == "scales":
        assert alone[0] > np.min(grid) and alone[1] == np.min(grid)
    if name == "line":
        assert alone[0] == 1.5
    if name == "infeasible":
        assert alone == [30.0] * 3
    if name == "fallback":
        assert calls_alone > 0


def test_select_bandwidth_takes_one_weight_row():
    x = np.linspace(0.0, 1.0, 30)
    with pytest.raises(FitError, match="one weight row"):
        select_bandwidth(x, np.sin(x), np.array([0.3, 0.5]), np.ones((2, 30)))


# ---------------------------------------------------------------- kde


def test_kde_symmetry():
    rng = np.random.default_rng(13)
    half = rng.normal(size=200)
    samples = np.concatenate([half, -half])
    kde = gaussian_kde(samples)
    pts = np.array([0.3, 1.1, 2.7])
    np.testing.assert_allclose(kde(pts), kde(-pts), atol=1e-12)


def test_kde_tail_decay():
    rng = np.random.default_rng(14)
    samples = rng.normal(size=100)
    kde = gaussian_kde(samples)
    far = samples.max() + 12.0 * kde.bandwidth
    assert kde(far) < 1e-12


def test_kde_recovers_standard_normal():
    rng = np.random.default_rng(15)
    samples = rng.standard_normal(1000)
    kde = gaussian_kde(samples)
    grid = np.linspace(-6, 6, 2401)
    dens = kde(grid)
    target = np.exp(-0.5 * grid**2) / np.sqrt(2 * np.pi)
    assert np.trapezoid(np.abs(dens - target), grid) < 0.08


def test_kde_nonnegative_and_normalized():
    rng = np.random.default_rng(16)
    samples = rng.gamma(2.0, 1.5, size=300)
    kde = gaussian_kde(samples)
    lo = samples.min() - 6 * kde.bandwidth
    hi = samples.max() + 6 * kde.bandwidth
    grid = np.linspace(lo, hi, 4001)
    dens = kde(grid)
    assert np.all(dens >= 0.0)
    assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-3


def test_kde_silverman_default_and_errors():
    rng = np.random.default_rng(17)
    samples = rng.normal(size=50)
    kde = gaussian_kde(samples)
    assert abs(kde.bandwidth - silverman_bandwidth(samples)) < 1e-15
    with pytest.raises(FitError):
        gaussian_kde(np.array([1.0]))


def test_expit_stable():
    z = np.array([-800.0, -20.0, 0.0, 20.0, 800.0])
    p = expit(z)
    assert np.all(np.isfinite(p))
    assert abs(p[2] - 0.5) < 1e-15
    # Bitwise the two-branch form, which takes exp only of non-positive
    # arguments, at the ends of exp's range, at the infinities and at NaN.
    z = np.array([-745.0, 745.0, -np.inf, np.inf, np.nan, -0.0, -36.7, 36.7, -1e-300, 1e-300])
    z = np.concatenate([z, np.random.default_rng(5).normal(scale=30.0, size=1000)])
    two_branch = np.empty_like(z)
    pos = z >= 0
    two_branch[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    two_branch[~pos] = ez / (1.0 + ez)
    assert expit(z).tobytes() == two_branch.tobytes()


def test_loo_candidate_with_a_tied_leave_one_out_window_is_infeasible():
    # Integer doses: the lone dose 10 has only the tied 9s beside it for
    # 1 < h < 2, where its leave-one-out line is not identified, so those
    # candidates are skipped rather than scored by the prefix sums'
    # rounding. From h = 2 on, its window reaches the 8s.
    x = np.array(
        [3, 8, 1, 6, 7, 2, 1, 3, 7, 6, 2, 4, 7, 4, 6, 10, 7, 4, 2, 3, 5, 9, 8, 3, 9, 5, 7, 1, 1, 2, 9, 7, 8, 6],
        dtype=float,
    )
    rng = np.random.default_rng(2)
    y = np.sin(x) + 0.3 * rng.normal(size=x.shape[0])
    w = rng.uniform(0.2, 3.0, x.shape[0])
    for h in (1.05, 1.3, 1.6):
        with pytest.raises(BandwidthError):
            select_bandwidth(x, y, np.array([h]), w)
    assert select_bandwidth(x, y, np.array([1.3, 2.1]), w) == 2.1
