"""DGP moments, ground truth, and the study harness."""

import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from counting import count_formations
from report_reference import method_report

from dosedid import curves, nuisance, simulation
from dosedid.config import parse_inference, parse_scenario, parse_specs
from dosedid.curves import METHODS, estimate_curve
from dosedid.errors import EstimationError, FitError
from dosedid.numeric import expit
from dosedid.simulation import (
    ROLE_DATA,
    InferenceConfig,
    ScenarioConfig,
    _replicate_worker,
    all_permutations,
    generate_null_data,
    generate_scenario_data,
    ground_truth_curve,
    run_permutation_study,
    simulation_specs,
    stream_seed,
)


def run_study(config):
    """The study of ``config``'s own specification alone."""
    return run_permutation_study(config, [config.misspecified])[tuple(sorted(config.misspecified))]


def _quadrature_expectation(fn, mean, sd, points=20001, span=10.0):
    """Independent 1-D Gaussian quadrature oracle."""
    z = np.linspace(mean - span * sd, mean + span * sd, points)
    pdf = np.exp(-0.5 * ((z - mean) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
    return np.trapezoid(fn(z) * pdf, z)


def test_dgp_moment_suite():
    n = 1_000_000
    data = generate_scenario_data(n, 123)
    x = data.x
    # covariates: standard normal
    assert np.all(np.abs(x.mean(axis=0)) < 4 / np.sqrt(n))
    assert np.all(np.abs(x.std(axis=0) - 1.0) < 4 / np.sqrt(2 * n))

    # P(A=1) against the analytic expit average (z ~ N(-0.1, s))
    s = np.sqrt(0.05**2 + 0.05**2 + 0.05**2 + 0.15**2)
    p_true = _quadrature_expectation(expit, -0.1, s)
    p_hat = data.n_treated / n
    assert abs(p_hat - p_true) < 4 * np.sqrt(p_true * (1 - p_true) / n)
    assert abs(p_true - 0.475) < 0.001

    # dose mean among treated: 3 + sum_j c_j E[Xj | A=1], with
    # E[Xj | A=1] = a_j E[pi'(z)] / P(A=1) by Stein's identity
    a_coef = np.array([0.05, 0.05, -0.05, 0.15])
    c_coef = np.array([0.2, 0.25, -0.3, 0.5])
    deriv = _quadrature_expectation(lambda z: expit(z) * (1 - expit(z)), -0.1, s)
    dose_mean_true = 3.0 + float(c_coef @ a_coef) * deriv / p_true
    dose_sd = np.sqrt(4.0 + float(c_coef @ c_coef))
    assert abs(data.dose.mean() - dose_mean_true) < 4 * dose_sd / np.sqrt(data.n_treated)

    # Y0 residual noise variance = 0.09
    y0_mean = (
        10.0
        + 0.4 * x[:, 0]
        - x[:, 1]
        + 0.4 * x[:, 2]
        + 0.3 * x[:, 3]
        + 2.0 * data.a
    )
    resid_var = np.var(data.y0 - y0_mean)
    assert abs(resid_var - 0.09) < 0.005

    # trend residual noise variance = 0.49, per group
    from dosedid.simulation import control_trend_mean, treated_trend_mean

    trend = data.y1 - data.y0
    resid_t = trend[data.a] - treated_trend_mean(x[data.a], data.dose)
    resid_c = trend[~data.a] - control_trend_mean(x[~data.a])
    assert abs(np.var(resid_t) - 0.49) < 0.01
    assert abs(np.var(resid_c) - 0.49) < 0.01


def test_dgp_deterministic():
    d1 = generate_scenario_data(500, 77)
    d2 = generate_scenario_data(500, 77)
    np.testing.assert_array_equal(d1.x, d2.x)
    np.testing.assert_array_equal(d1.a, d2.a)
    np.testing.assert_array_equal(d1.dose, d2.dose)
    np.testing.assert_array_equal(d1.y0, d2.y0)
    np.testing.assert_array_equal(d1.y1, d2.y1)


def test_datasets_shared_across_permutations():
    d_a = generate_scenario_data(200, stream_seed(9, 3, ROLE_DATA))
    d_b = generate_scenario_data(200, stream_seed(9, 3, ROLE_DATA))
    np.testing.assert_array_equal(d_a.y1, d_b.y1)


def test_ground_truth_constant_effect_dgp(monkeypatch):
    monkeypatch.setattr(simulation, "treated_trend_mean", lambda x, d: np.full(x.shape[0], 2.5) + 0 * x[..., 0])
    monkeypatch.setattr(simulation, "control_trend_mean", lambda x: np.zeros(x.shape[0]))
    truth = ground_truth_curve(5, super_n=50_000)
    np.testing.assert_allclose(truth.psi_true, 2.5, atol=1e-12)
    assert abs(truth.density_weights.sum() - 1.0) < 1e-12


def test_ground_truth_shape_and_determinism():
    t1 = ground_truth_curve(4, super_n=100_000)
    t2 = ground_truth_curve(4, super_n=100_000)
    np.testing.assert_array_equal(t1.psi_true, t2.psi_true)
    np.testing.assert_array_equal(t1.grid, t2.grid)
    # concave with an interior maximum (cubic dose term dominates at the top)
    k_max = int(np.argmax(t1.psi_true))
    assert 0 < k_max < t1.grid.shape[0] - 1
    assert t1.psi_true[-1] < t1.psi_true[k_max]
    assert np.all(np.diff(t1.grid) > 0)


# The study DGP's printed coefficients, copied so that the oracles below
# share no code with dosedid.simulation: P(A=1 | X) = expit(B0 + B.X), and
# the treated-minus-control expected trend at dose d is
#     tau(X, d) = 6 + 0.04 d - 0.003 d^3 + (TAU_X + d TAU_XD).X.
B0 = -0.1
B = np.array([0.05, 0.05, -0.05, 0.15])
TAU_X = np.array([1.6, -0.1, 0.3, 0.3])
TAU_XD = np.array([-0.1, 0.0, 0.1, 0.0])
DOSE_C0 = 3.0
DOSE_C = np.array([0.2, 0.25, -0.3, 0.5])
DOSE_SD = 2.0


def _propensity_expectations(shift=0.0, nodes=80):
    """E[expit^(k)(B0 + shift + |B| Z)] for k = 0, 1, 2, Z ~ N(0, 1), by
    Gauss-Hermite quadrature."""
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / np.sqrt(2.0 * np.pi)
    p = expit(B0 + shift + np.linalg.norm(B) * z)
    return w @ p, w @ (p * (1 - p)), w @ (p * (1 - p) * (1 - 2 * p))


def test_ground_truth_analytic_oracle_at_delta():
    """psi against its closed form at every grid point. tau is linear in X,
    and by Stein's lemma E[X p(X)] = B E[expit'(B0 + B.X)] with B.X ~
    N(0, |B|^2), so E[X | A=1] = B E[expit'] / E[expit]."""
    truth = ground_truth_curve(6)
    e_p, e_dp, _ = _propensity_expectations()
    m = B * e_dp / e_p
    d = truth.grid
    psi = 6.0 + 0.04 * d - 0.003 * d**3 + m @ TAU_X + d * (m @ TAU_XD)
    np.testing.assert_allclose(truth.psi_true, psi, rtol=0.0, atol=1e-10)


def test_ground_truth_nonlinear_trends_against_closed_forms(monkeypatch):
    """A trend nonlinear in X: mu1(X, d) = d exp(X1 / 2) + X2^2, mu0(X) = X3.
    By the Gaussian shift, E[exp(t X1) p(X)] = exp(t^2/2) E[expit(B0 + t B1 +
    |B| Z)]; by Stein's lemma twice, E[X2^2 p(X)] = E[p] + B2^2 E[expit''];
    and E[X3 p(X)] = B3 E[expit']."""

    def treated(x, d):
        return d * np.exp(0.5 * x[..., 0]) + x[..., 1] ** 2

    def control(x):
        return x[..., 2]

    monkeypatch.setattr(simulation, "treated_trend_mean", treated)
    monkeypatch.setattr(simulation, "control_trend_mean", control)
    truth = ground_truth_curve(0)
    e_p, e_dp, e_ddp = _propensity_expectations()
    e_shifted = _propensity_expectations(shift=0.5 * B[0])[0]
    psi = (truth.grid * np.exp(0.125) * e_shifted + e_p + B[1] ** 2 * e_ddp - B[2] * e_dp) / e_p
    np.testing.assert_allclose(truth.psi_true, psi, rtol=0.0, atol=1e-12)


def test_ground_truth_dose_law_on_a_tensor_rule():
    """F(d) = E[p(X) Phi((d - m(X)) / 2)] / E[p(X)] integrated over all four
    covariates on a tensor Gauss-Hermite rule, with no reduction to one
    dimension: the grid's ends sit at F = 0.1 and 0.9, and each density
    weight is its bin's probability, normalised. 12 nodes per axis move
    this rule's numbers by under 3e-16."""
    truth = ground_truth_curve(0)
    z, w = np.polynomial.hermite_e.hermegauss(10)
    x = np.array(np.meshgrid(z, z, z, z, indexing="ij")).reshape(4, -1).T
    weight = np.prod(np.array(np.meshgrid(w, w, w, w, indexing="ij")).reshape(4, -1), axis=0)
    weight = weight * expit(B0 + x @ B)
    weight /= weight.sum()
    mean = DOSE_C0 + x @ DOSE_C
    erfc = np.vectorize(math.erfc, otypes=[float])

    def cdf(d):
        return weight @ (0.5 * erfc((mean - d) / (DOSE_SD * np.sqrt(2.0))))

    np.testing.assert_allclose([cdf(truth.grid[0]), cdf(truth.grid[-1])], [0.1, 0.9], rtol=0.0, atol=1e-13)
    spacing = truth.grid[1] - truth.grid[0]
    edges = np.concatenate([[truth.grid[0] - spacing / 2], truth.grid + spacing / 2])
    probabilities = np.diff([cdf(e) for e in edges])
    np.testing.assert_allclose(truth.density_weights, probabilities / probabilities.sum(), rtol=0.0, atol=1e-13)


def test_ground_truth_dose_law_matches_a_weighted_draw():
    """Grid ends and density weights against a draw of the treated-dose law
    that weights each covariate draw by p(X) in place of sampling A. Each
    share is a ratio of p-weighted sums, sum_A p / sum_S p with A inside S;
    its linearised variance is E[p^2 (1_A - r 1_S)^2] / (N E[p 1_S]^2), and
    (1_A - r 1_S)^2 = (1 - 2r) 1_A + r^2 1_S. Every share lies within 4
    standard errors of the truth's."""
    truth = ground_truth_curve(0)
    n = 1_000_000
    rng = np.random.default_rng(20261018)
    x = rng.standard_normal((n, 4))
    p = expit(B0 + x @ B)
    dose = DOSE_C0 + x @ DOSE_C + DOSE_SD * rng.standard_normal(n)
    order = np.argsort(dose)
    dose, p = dose[order], p[order]
    cum_p = np.concatenate([[0.0], np.cumsum(p)]) / n
    cum_p2 = np.concatenate([[0.0], np.cumsum(p * p)]) / n

    def at(e):
        k = np.searchsorted(dose, e, side="right")
        return cum_p[k], cum_p2[k]

    spacing = truth.grid[1] - truth.grid[0]
    edges = np.concatenate([[truth.grid[0] - spacing / 2], truth.grid + spacing / 2])
    p_edges, p2_edges = at(edges)
    p_ends, p2_ends = at(truth.grid[[0, -1]])
    # Shares of the whole law below the grid's ends, then of the grid's span
    # in each bin.
    num = np.concatenate([p_ends, np.diff(p_edges)])
    num2 = np.concatenate([p2_ends, np.diff(p2_edges)])
    den = np.concatenate([[cum_p[-1]] * 2, [p_edges[-1] - p_edges[0]] * 50])
    den2 = np.concatenate([[cum_p2[-1]] * 2, [p2_edges[-1] - p2_edges[0]] * 50])
    share = num / den
    se = np.sqrt(((1 - 2 * share) * num2 + share**2 * den2) / n) / den
    expected = np.concatenate([[0.1, 0.9], truth.density_weights])
    z = np.abs(share - expected) / se
    assert z.max() <= 4.0, f"largest z {z.max():.2f} at share {int(np.argmax(z))}"


def test_ground_truth_ignores_super_n_and_seed():
    first = ground_truth_curve(0, super_n=10_000)
    second = ground_truth_curve(987_654, super_n=5_000_000)
    for name in ("grid", "psi_true", "density_weights"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name
    assert (second.super_n, second.seed) == (5_000_000, 987_654)
    with pytest.raises(ValueError, match="10,000"):
        ground_truth_curve(0, super_n=9_999)


def _perm_specs(cfg):
    """The spec dicts of the 16 permutations, in ``all_permutations`` order."""
    return [simulation_specs(cfg, p) for p in all_permutations()]


def _oracle_study(monkeypatch, cfg, truth, psi):
    """The report of ``cfg``'s correct-spec study against ``truth`` when
    every replicate's every curve is ``psi`` and it has no bands."""

    def oracle(config, perm_specs, truth, rep):
        jobs = len(perm_specs) * len(config.methods)
        return np.tile(psi, (jobs, 1)), np.full((jobs, 2), np.nan), np.zeros((jobs, 0, 2, psi.size)), np.zeros((jobs, 0))

    monkeypatch.setattr(simulation, "_replicate_worker", oracle)
    return run_permutation_study(cfg, [cfg.misspecified], truth=truth)[()]


def test_metric_sanity_with_oracle_estimator(monkeypatch):
    cfg = ScenarioConfig(n=120, replicates=1, seed=21, methods=("MR",), super_n=20_000)
    truth = ground_truth_curve(21, 20_000)
    shifted = _oracle_study(monkeypatch, cfg, truth, truth.psi_true + 0.25)
    report = shifted.methods["MR"]
    assert abs(report.integrated_abs_bias - 0.25) < 1e-10
    assert report.coverage == {}  # the oracle has no bands
    exact = _oracle_study(monkeypatch, cfg, truth, truth.psi_true)
    assert exact.methods["MR"].integrated_abs_bias < 1e-12


_PERM_KEYS = [(), ("pi_d",), ("mu0", "mu1", "pi_a", "pi_d")]


def _synthetic_stack(reps: int, n_ci: int, truth) -> simulation._Jobs:
    """A (reps, 3, 6, ...) stack of replicate records as the worker writes
    them: failed jobs' psi, edge and band rows NaN (cell (0, MR) fails in
    its first replicate, cell (1, MR) succeeds in one replicate only), NaN
    edge rows for the methods that select no bandwidth and for some that
    do, and MR bands that raised in every ci-method (one ci-method of cell
    (2, MR) in every replicate)."""
    rng = np.random.default_rng(reps * 10 + n_ci)
    shape, k = (reps, len(_PERM_KEYS), len(METHODS)), truth.grid.size
    psi = truth.psi_true + 0.3 * rng.standard_normal((*shape, k))
    failed = rng.random(shape) < (0.3 if reps > 1 else 0.0)
    mr = METHODS.index("MR")
    if reps > 1:
        failed[0] |= np.arange(len(METHODS)) % 2 == 1  # first rows failed in half the cells
        failed[-1] = False  # so that every cell keeps a success
        failed[:, 0, mr] = [True] + [False] * (reps - 1)
        failed[:, 1, mr] = [r != 2 for r in range(reps)]
    psi[failed] = np.nan
    edges = rng.integers(0, 2, (*shape, 2)).astype(float)
    smoothed = np.isin(METHODS, curves.SMOOTHED_METHODS)
    edges[failed | ~smoothed | (rng.random(shape) < 0.2)] = np.nan
    spread = np.abs(0.4 * rng.standard_normal((*shape, n_ci, k)))
    bands = np.stack([psi[..., None, :] - spread, psi[..., None, :] + spread], axis=-2)
    band_failed = ~failed[..., None] & (rng.random((*shape, n_ci)) < 0.3)
    band_failed[..., np.arange(len(METHODS)) != mr, :] = False
    if n_ci:
        band_failed[:, 2, mr, -1] = ~failed[:, 2, mr]
    bands[band_failed | failed[..., None]] = np.nan
    bands[:, :, np.arange(len(METHODS)) != mr] = np.nan
    return simulation._Jobs(psi, edges, bands, band_failed)


def _bitwise_same(a, b) -> bool:
    """Equal, with floats compared by their bytes and mappings item by item."""
    if isinstance(b, dict):
        return isinstance(a, dict) and list(a) == list(b) and all(_bitwise_same(a[k], b[k]) for k in b)
    if isinstance(b, float):
        return type(a) is float and np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("reps", [1, 5])
@pytest.mark.parametrize("ci_methods", [(), ("sandwich",), simulation.CI_METHODS], ids=["none", "sandwich", "both"])
def test_study_report_is_the_per_cell_reduction_bitwise(reps, ci_methods):
    truth = ground_truth_curve(0, grid_size=9)
    stack = _synthetic_stack(reps, len(ci_methods), truth)
    reports = simulation._method_reports(truth, _PERM_KEYS, METHODS, ci_methods, stack)
    mr = METHODS.index("MR")
    if reps > 1:
        assert np.isnan(stack.psi[0, 0, mr, 0]) and np.count_nonzero(~np.isnan(stack.psi[:, 1, mr, 0])) == 1
    for p, key in enumerate(_PERM_KEYS):
        for m, method in enumerate(METHODS):
            job = simulation._Jobs(*(part[:, p, m] for part in stack))
            expected = dataclasses.asdict(method_report(truth, key, method, ci_methods, job))
            got = dataclasses.asdict(reports[key][method])
            assert _bitwise_same(got, expected), (key, method, got, expected)
    if ci_methods:
        assert list(reports[_PERM_KEYS[2]]["MR"].coverage) == list(ci_methods[:-1])
        assert reports[_PERM_KEYS[2]]["MR"].inference_failures[ci_methods[-1]] > 0


def test_a_cell_that_failed_in_every_replicate_raises():
    truth = ground_truth_curve(0, grid_size=9)
    stack = _synthetic_stack(5, 2, truth)
    stack.psi[:, 1, METHODS.index("OR")] = np.nan
    stack.psi[:, 2, METHODS.index("MR")] = np.nan
    message = re.escape(f"every replicate failed for OR under {_PERM_KEYS[1]!r}")
    with pytest.raises(EstimationError, match=message):
        simulation._method_reports(truth, _PERM_KEYS, METHODS, simulation.CI_METHODS, stack)
    job = simulation._Jobs(*(part[:, 1, METHODS.index("OR")] for part in stack))
    with pytest.raises(EstimationError, match=message):
        method_report(truth, _PERM_KEYS[1], "OR", simulation.CI_METHODS, job)


def test_study_engine_matches_direct_estimates():
    cfg = ScenarioConfig(n=400, replicates=2, seed=31, methods=METHODS, super_n=20_000, keep_curves=True)
    perms = all_permutations()
    truth = ground_truth_curve(31, 20_000)
    reports = run_permutation_study(cfg, perms, truth=truth)
    edges = {}
    for rep in range(2):
        data = generate_scenario_data(400, stream_seed(31, rep, ROLE_DATA))
        for perm in perms:
            key = tuple(sorted(perm))
            specs = simulation_specs(cfg, perm)
            for method in METHODS:
                direct = estimate_curve(data, method, specs=specs, grid=truth.grid)
                np.testing.assert_array_equal(
                    reports[key].curves[method][rep],
                    direct.psi,
                    err_msg=f"{method} perm={key} rep={rep}",
                )
                if direct.diagnostics["bandwidth_selected"]:
                    diag = direct.diagnostics
                    flags = (diag["bandwidth_at_grid_edge"] == "high", diag["bandwidth_extended"])
                    edges.setdefault((method, key), []).append(flags)
    for perm in perms:
        key = tuple(sorted(perm))
        for method in METHODS:
            report = reports[key].methods[method]
            shares = np.mean(edges[(method, key)], axis=0) if (method, key) in edges else (None, None)
            assert (report.bandwidth_at_grid_edge, report.bandwidth_extended) == tuple(shares), (method, key)


@pytest.mark.parametrize(
    "pick, shares",
    [(np.min, (0.0, 0.0)), (np.max, (1.0, 0.0)), (lambda grid: 1.5 * np.max(grid), (1.0, 1.0))],
    ids=["bottom", "top", "beyond"],
)
def test_study_counts_bandwidths_at_and_beyond_the_grid_top(monkeypatch, pick, shares):
    monkeypatch.setattr(curves, "robust_select_bandwidth", lambda window, grid: float(pick(grid)))
    cfg = ScenarioConfig(n=300, replicates=2, seed=61, methods=("MR", "NAIVE", "OR"))
    methods = run_study(cfg).methods
    for method in ("MR", "NAIVE"):
        assert (methods[method].bandwidth_at_grid_edge, methods[method].bandwidth_extended) == shares
    assert (methods["OR"].bandwidth_at_grid_edge, methods["OR"].bandwidth_extended) == (None, None)


def test_model_bank_shares_fits_across_permutations(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fit_pi_a", "fit_pi_d", "fit_mu1", "fit_mu0", "marginalize"):
        monkeypatch.setattr(nuisance, name, counted(name, getattr(nuisance, name)))
    cfg = ScenarioConfig(n=300, replicates=1, seed=33, methods=METHODS, super_n=20_000)
    truth = ground_truth_curve(33, 20_000)
    psi, *_ = _replicate_worker(cfg, _perm_specs(cfg), truth, 0)
    assert psi.shape == (16 * len(METHODS), truth.grid.size) and not np.any(np.isnan(psi))  # no job failed
    assert calls == Counter(fit_pi_a=2, fit_pi_d=2, fit_mu1=2, fit_mu0=2, marginalize=4)


def _job_specs(cfg):
    """Each job's method and the specs of the models it reads, in the
    worker's job order."""
    return [
        (method, tuple(specs[name] for name in curves.DOSE_NEEDS[method] + curves.CONTROL_NEEDS[method]))
        for specs in _perm_specs(cfg)
        for method in cfg.methods
    ]


def test_a_replicate_builds_each_model_set_and_curve_once(monkeypatch):
    """A 16-permutation, six-method replicate at n = 1,000 builds 25 model
    sets (16 for MR and MR_PARAMETRIC, 4 for OR, 4 for IPW, 1 for NAIVE and
    TWFE) and 42 curves (16, 16, 4, 4, 1, 1); jobs that read the same
    models under the same specs get one set, and jobs of one method among
    them one curve."""
    built = Counter()
    shared = {}

    def counted(name, post_init):
        def wrapper(obj):
            built[name] += 1
            post_init(obj)

        return wrapper

    for owner, name in ((nuisance.NuisanceModelSet, "sets"), (curves.EffectCurveEstimate, "curves")):
        monkeypatch.setattr(owner, "__post_init__", counted(name, owner.__post_init__))
    engine = simulation.estimate_curves

    def recorded(data, jobs, grid):
        out = engine(data, jobs, grid)
        shared.update(jobs=jobs, out=out)
        return out

    monkeypatch.setattr(simulation, "estimate_curves", recorded)
    cfg = ScenarioConfig(n=1000, replicates=1, seed=1, methods=METHODS)
    psi, *_ = _replicate_worker(cfg, _perm_specs(cfg), ground_truth_curve(1), 0)
    assert not np.any(np.isnan(psi))  # no job failed
    assert built == Counter(sets=25, curves=42)
    jobs, out, keys = shared["jobs"], shared["out"], _job_specs(cfg)
    assert sorted(jobs) == list(range(16 * len(METHODS)))
    for i in jobs:
        for j in jobs:
            assert (jobs[i][1] is jobs[j][1]) == (keys[i][1] == keys[j][1]), (keys[i], keys[j])
            assert (out[i] is out[j]) == (keys[i] == keys[j]), (keys[i], keys[j])


def test_a_model_set_that_raises_fails_every_job_that_reads_it(monkeypatch):
    """When mu0's fit raises under the Kang-Schafer map, every job whose
    set holds that mu0 gets the error and leaves its psi row NaN; the rest
    form."""
    fit_mu0 = nuisance.fit_mu0

    def failing(data, spec):
        if spec.covariate_map == "kang_schafer":
            raise FitError("provoked")
        return fit_mu0(data, spec)

    monkeypatch.setattr(nuisance, "fit_mu0", failing)
    cfg = ScenarioConfig(n=300, replicates=1, seed=33, methods=METHODS, super_n=20_000)
    psi, *_ = _replicate_worker(cfg, _perm_specs(cfg), ground_truth_curve(33, 20_000), 0)
    wrong = [
        "mu0" in curves.CONTROL_NEEDS[method] and "mu0" in perm for perm in all_permutations() for method in METHODS
    ]
    assert wrong.count(True) == 8 * 3
    np.testing.assert_array_equal(np.isnan(psi).all(axis=1), wrong)
    assert not np.isnan(psi[~np.array(wrong)]).any()


def test_one_leave_one_out_pass_per_replicate(monkeypatch):
    """A 16-permutation, six-method replicate selects the bandwidths of its
    7 smoothed dose sides (4 MR, 2 IPW, 1 NAIVE) in one call, over the
    smoother's window."""
    stacks = []
    original = curves.robust_select_bandwidth

    def counted(window, grid):
        stacks.append(window.y_sorted.shape)
        return original(window, grid)

    monkeypatch.setattr(curves, "robust_select_bandwidth", counted)
    cfg = ScenarioConfig(n=300, replicates=1, seed=33, methods=METHODS, super_n=20_000)
    truth = ground_truth_curve(33, 20_000)
    psi, edges, _, _ = _replicate_worker(cfg, _perm_specs(cfg), truth, 0)
    assert psi.shape == (16 * len(METHODS), truth.grid.size) and not np.any(np.isnan(psi))  # no job failed
    assert stacks == [(7, generate_scenario_data(300, stream_seed(33, 0, ROLE_DATA)).n_treated)]
    assert np.count_nonzero(~np.isnan(edges[:, 0])) == 16 * 3


def test_one_replicate_assembles_each_design_once_per_call(monkeypatch):
    """A 16-permutation, six-method replicate at n = 1,000 assembles at most
    26 nuisance design matrices, every one through
    ``CovariateDesign.assemble``, applies the Kang-Schafer map at most 17
    times, forms the weight part once per fitted pi_d and once per fitted
    pi_a (2 and 2, with 2 pi_a(X) evaluations), calls ``compute_theta0``
    at most 4 times (the MR and MR_PARAMETRIC pairs; IPW's theta0 reads the
    control weights alone) and builds one smoother window, which the
    leave-one-out pass and every smoothed curve read (measured: 26, 17, 2,
    2, 2, 4 and 1; before the weight parts were shared, 34 designs, 21 maps,
    6 dose-weight formations, 6 pi_a(X) and 6 ``compute_theta0`` calls)."""
    counts = count_formations(monkeypatch)
    mapping, theta0 = nuisance.kang_schafer_map, curves.compute_theta0

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(nuisance, "kang_schafer_map", counted("maps", mapping))
    monkeypatch.setattr(curves, "compute_theta0", counted("theta0", theta0))
    cfg = ScenarioConfig(n=1000, replicates=1, seed=1, methods=METHODS)
    psi, *_ = _replicate_worker(cfg, _perm_specs(cfg), ground_truth_curve(1), 0)
    assert psi.shape == (16 * len(METHODS), 50) and not np.any(np.isnan(psi))  # no job failed
    assert counts["designs"] <= 26
    assert counts["maps"] <= 17
    assert (counts["dose weights"], counts["control weights"], counts["pi_a(X)"]) == (2, 2, 2)
    assert counts["theta0"] <= 4
    assert counts["windows"] == 1


def test_run_study_with_inference_smoke():
    cfg = ScenarioConfig(
        n=150,
        replicates=2,
        seed=41,
        methods=("MR",),
        super_n=20_000,
        inference=InferenceConfig(method="both", b_replicates=12),
    )
    report = run_study(cfg)
    mr = report.methods["MR"]
    assert set(mr.coverage) == {"sandwich", "bootstrap"}
    assert 0.0 <= mr.coverage["sandwich"] <= 100.0
    assert mr.mean_width["bootstrap"] > 0.0


@pytest.mark.parametrize("failing", ["sandwich", "bootstrap"])
def test_a_band_that_raises_is_counted_and_left_out_of_its_coverage(monkeypatch, failing):
    """When one replicate of four raises in its ``failing`` band, MR reports
    that band's failure count as 1 and takes its coverage and width over the
    other three replicates; the other band forms in all four."""
    cfg = ScenarioConfig(
        n=150, replicates=4, seed=43, workers=1, inference=InferenceConfig(method="both", b_replicates=10)
    )
    provoking = generate_scenario_data(cfg.n, stream_seed(cfg.seed, 2, ROLE_DATA)).y1
    formed = {"sandwich": [], "bootstrap": []}

    def recorded(ci_method, make, ends):
        def wrapper(data, *args, **kwargs):
            if ci_method == failing and np.array_equal(data.y1, provoking):
                raise EstimationError("provoked")
            out = make(data, *args, **kwargs)
            formed[ci_method].append(ends(out))
            return out

        return wrapper

    monkeypatch.setattr(simulation, "sandwich_bands", recorded("sandwich", simulation.sandwich_bands, lambda out: out[:2]))
    monkeypatch.setattr(
        simulation,
        "weighted_bootstrap",
        recorded("bootstrap", simulation.weighted_bootstrap, lambda out: (out.ci_lower, out.ci_upper)),
    )
    truth = ground_truth_curve(cfg.seed)
    mr = run_permutation_study(cfg, [()], truth=truth)[()].methods["MR"]
    assert mr.failures == 0
    assert mr.inference_failures == {ci_method: int(ci_method == failing) for ci_method in formed}
    for ci_method, ends in formed.items():
        assert len(ends) == (3 if ci_method == failing else 4)
        lo, hi = np.array([e[0] for e in ends]), np.array([e[1] for e in ends])
        covered = np.mean((lo <= truth.psi_true) & (truth.psi_true <= hi), axis=0)
        assert mr.coverage[ci_method] == pytest.approx(100.0 * np.sum(truth.density_weights * covered), rel=1e-12)
        assert mr.mean_width[ci_method] == pytest.approx(np.sum(truth.density_weights * (hi - lo).mean(axis=0)), rel=1e-12)


def test_archived_curves_own_their_data():
    """Each ``ScenarioReport.curves`` array is a copy, not a view that would
    keep the replicates' whole stack alive."""
    cfg = ScenarioConfig(n=200, replicates=2, seed=53, methods=("MR", "NAIVE"), workers=1, keep_curves=True)
    reports = run_permutation_study(cfg, [(), ("mu1",)], truth=ground_truth_curve(53))
    for report in reports.values():
        for method, curve in report.curves.items():
            assert curve.shape == (2, 50) and curve.base is None, method


def test_parallel_workers_match_serial():
    base = dict(n=250, replicates=4, seed=51, methods=METHODS, super_n=20_000, keep_curves=True)
    serial = run_study(ScenarioConfig(**base, workers=1))
    parallel = run_study(ScenarioConfig(**base, workers=2))
    for method in METHODS:
        np.testing.assert_array_equal(serial.curves[method], parallel.curves[method], err_msg=method)
    assert (
        serial.methods["MR"].integrated_abs_bias == parallel.methods["MR"].integrated_abs_bias
    )


def test_all_permutations_enumeration():
    perms = all_permutations()
    assert len(perms) == 16
    assert frozenset() in perms
    assert frozenset({"pi_a", "pi_d", "mu1", "mu0"}) in perms
    assert len(set(perms)) == 16


def test_null_dgp_has_no_effect_structure():
    data = generate_null_data(50_000, 3)
    trend_t = data.trend[data.a]
    trend_c = data.trend[~data.a]
    assert abs(trend_t.mean()) < 0.02
    assert abs(trend_c.mean()) < 0.02
    # trends carry no covariate signal
    corr = np.corrcoef(np.column_stack([data.trend, data.x]).T)[0, 1:]
    assert np.all(np.abs(corr) < 0.02)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n=10, replicates=5)
    with pytest.raises(ValueError):
        ScenarioConfig(n=100, replicates=0)
    with pytest.raises(ValueError):
        ScenarioConfig(n=100, replicates=1, methods=("MR", "NOPE"))
    assert ScenarioConfig(n=100, methods=("MR", "OR", "MR")).methods == ("MR", "OR")
    with pytest.raises(ValueError):
        InferenceConfig(method="jackknife")
    with pytest.raises(ValueError):
        InferenceConfig(method="sandwich", mode="stacked")


def test_parse_inference_reports_unknown_keys():
    problems = []
    parsed = parse_inference({"method": "bootstrap", "B": 50, "refit_bandwidth": True}, problems)
    assert problems == ["inference: unknown keys refit_bandwidth"]
    assert parsed == InferenceConfig(method="bootstrap", b_replicates=50)
    problems = []
    assert parse_inference({"method": "both", "B": 9, "mode": "augmented"}, problems) == InferenceConfig(
        method="both", b_replicates=9, mode="augmented"
    )
    assert problems == []


def test_b_replicates_is_an_unknown_inference_key():
    problems = []
    assert parse_inference({"method": "bootstrap", "b_replicates": 9}, problems) == InferenceConfig(method="bootstrap")
    assert problems == ["inference: unknown keys b_replicates"]


def test_parse_specs_reports_unknown_keys():
    problems = []
    specs = parse_specs({"mu1": {"dose_power": [1, 3]}, "pi_d": {"kde_bandwidth": 0.3, "dose_powers": [2]}}, problems)
    assert problems == ["nuisance.mu1: unknown keys dose_power", "nuisance.pi_d: unknown keys dose_powers"]
    assert specs["pi_d"].kde_bandwidth == 0.3
    problems = []
    specs = parse_specs({"mu1": {"dose_powers": [1, 3], "dose_interactions": [0]}}, problems)
    assert problems == [] and specs["mu1"].dose_powers == (1, 3)


def test_parse_scenario_reports_unknown_keys():
    problems = []
    parsed = parse_scenario({"scenario": {"n": 100, "replicate": 5}}, problems)
    assert problems == ["scenario: unknown keys replicate"]
    assert parsed.replicates == 200
    problems = []
    block = {"n": 100, "replicates": 5, "permutations": "all", "keep_curves": True}
    assert parse_scenario({"scenario": block, "workers": 1}, problems).replicates == 5
    assert problems == []
