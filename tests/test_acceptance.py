"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline). Sizes follow the stated desk-scale protocol: criterion 1 at
n=1000 with 200 replicates, criterion 2 at n=5000 with 200 replicates,
criterion 3 at n=200 with 100 replicates and B=200.

Criterion 1's NAIVE/TWFE check holds both comparators to the confounding
bias the documented data-generating process implies: their mean curves and
integrated biases are compared with estimand-level references computed in
``comparator_reference.py`` from a super-population draw of the DGP, with
bands derived from the replicates' Monte-Carlo error. ``docs/DECISIONS.md``
records the derivation and why the earlier fixed bands were dropped.
"""

import numpy as np
import pytest
import sandwich_reference as explicit
from comparator_reference import MC_ERROR, comparator_reference
from marginal_reference import predict_matrix

from dosedid import inference
from dosedid.curves import EstimatorConfig, estimate_curve, robust_select_bandwidth
from dosedid.data import TwoPeriodDataset
from dosedid.inference import (
    bootstrap_weights,
    stacked_sandwich_variance,
    weighted_bootstrap,
)
from dosedid.nuisance import DENSITY_FLOOR, default_specs, fit_nuisances
from dosedid.numeric import WindowedMoments, default_bandwidth_grid, local_linear_fit
from dosedid.panel import placebo_curves
from dosedid.pseudo import compute_theta0, compute_xi_terms, control_weights_of
from dosedid.simulation import (
    ROLE_DATA,
    InferenceConfig,
    ScenarioConfig,
    all_permutations,
    generate_null_data,
    generate_placebo_panel,
    generate_scenario_data,
    ground_truth_curve,
    run_permutation_study,
    simulation_specs,
    stream_seed,
)

WORKERS = 2
SEED = 20240801
SPECS = default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))


def _report(label, ok, detail):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# =====================================================================
# Criterion 1: Table-1 spot reproduction (n=1000, 200 replicates)
# =====================================================================


@pytest.fixture(scope="module")
def table1_reports():
    config = ScenarioConfig(
        n=1000,
        replicates=200,
        seed=SEED,
        methods=("MR", "OR", "IPW", "NAIVE", "TWFE"),
        workers=WORKERS,
        keep_curves=True,
    )
    perms = [
        frozenset(),
        frozenset({"mu0", "mu1"}),
        frozenset({"pi_a", "pi_d"}),
        frozenset({"pi_a", "pi_d", "mu1", "mu0"}),
    ]
    return run_permutation_study(config, perms)


def _bias(reports, perm, method):
    return reports[tuple(sorted(perm))].methods[method].integrated_abs_bias


def test_criterion_1_model_based_bands(table1_reports):
    checks = [
        ("MR none", _bias(table1_reports, set(), "MR"), 0.01, 0.06),
        ("MR all-four", _bias(table1_reports, {"pi_a", "pi_d", "mu1", "mu0"}, "MR"), 0.12, 0.25),
        ("OR none", _bias(table1_reports, set(), "OR"), 0.0, 0.03),
        ("OR both-outcomes", _bias(table1_reports, {"mu0", "mu1"}, "OR"), 0.18, 0.30),
        ("IPW both-propensities", _bias(table1_reports, {"pi_a", "pi_d"}, "IPW"), 0.10, 0.22),
    ]
    ok = all(lo <= val <= hi for _, val, lo, hi in checks)
    detail = "; ".join(f"{name}={val:.3f} in [{lo}, {hi}]" for name, val, lo, hi in checks)
    _report("1 (MR/OR/IPW bands)", ok, detail)
    for name, val, lo, hi in checks:
        assert lo <= val <= hi, f"{name}: {val:.4f} outside [{lo}, {hi}]"


# NAIVE and TWFE are scored against estimand-level references computed from
# the DGP (comparator_reference.py). TWFE's reference is the population
# projection line. NAIVE's is E[trend | D, A=1] passed through NAIVE's own
# smoother at each replicate's bandwidth and averaged over replicates, so its
# smoothing bias is modelled rather than absorbed into the band; the
# bandwidths are the one input taken from the estimator's selector. Each
# check is made twice: pointwise, |mean curve - reference| <= Z Monte-Carlo
# SEs at every grid point; and integrated, |study bias - reference bias| <=
# half-width.
#
# Half-width. The study's integrated bias is sum_k w_k |m_k - psi_k| with m
# the mean of R replicate curves. By the triangle inequality it differs from
# the reference's by at most sum_k w_k |m_k - ref_k|, whose scale is the
# integrated Monte-Carlo SE, sum_k w_k sd_k / sqrt(R). The study's truth is
# exact (quadrature, D9). The reference adds at most MC_ERROR, which also
# covers its own density weights (they move its integrated biases by < 3e-4
# against the truth's). So
#     half-width = Z * integrated SE + MC_ERROR.
# At this fixture the integrated SEs are 0.0092 (NAIVE) and 0.0078 (TWFE):
#     NAIVE 4 * 0.0092 + 0.002 = 0.039 <= 0.055,
#     TWFE  4 * 0.0078 + 0.002 = 0.033 <= 0.075,
# the half-widths of the bands they replace, [0.27, 0.38] and [0.35, 0.50].
# The reference curves' own pointwise error (sd < 0.003 against replicate
# SEs >= 0.0069) is left inside the pointwise Z.
Z = 4.0
REPLACED_HALF_WIDTH = {"NAIVE": 0.055, "TWFE": 0.075}


@pytest.fixture(scope="module")
def naive_bandwidths(table1_reports):
    """The leave-one-out bandwidth the NAIVE smoother picks in each
    replicate, on the default grid the study passes it, with that grid's
    top candidate: (R, 2)."""
    config = table1_reports[()].config
    out = []
    for rep in range(config.replicates):
        data = generate_scenario_data(config.n, stream_seed(config.seed, rep, ROLE_DATA))
        trend_t, _ = data.split(data.trend)
        candidates = default_bandwidth_grid(data.dose)
        window = WindowedMoments(data.dose, trend_t, np.ones(data.dose.shape))
        out.append((robust_select_bandwidth(window, candidates), candidates.max()))
    return np.array(out)


def _comparator_check(report, method, ref, ref_curve):
    curves = report.curves[method]
    curves = curves[~np.isnan(curves[:, 0])]
    se = curves.std(axis=0, ddof=1) / np.sqrt(curves.shape[0])
    z_max = float(np.max(np.abs(curves.mean(axis=0) - ref_curve) / se))
    bias = report.methods[method].integrated_abs_bias
    half = Z * float(report.truth.density_weights @ se) + MC_ERROR
    return bias, ref.integrated_bias(ref_curve), half, z_max


def test_criterion_1_naive_twfe_bands(table1_reports, naive_bandwidths):
    report = table1_reports[()]
    ref = comparator_reference(report.truth.grid, SEED)
    naive_ref = np.mean([ref.naive_smoothed(h) for h in naive_bandwidths[:, 0]], axis=0)
    checks = {
        "NAIVE": _comparator_check(report, "NAIVE", ref, naive_ref),
        "TWFE": _comparator_check(report, "TWFE", ref, ref.twfe),
    }
    ok = all(
        abs(bias - centre) <= half <= REPLACED_HALF_WIDTH[m] and z_max <= Z
        for m, (bias, centre, half, z_max) in checks.items()
    )
    _report(
        "1 (NAIVE/TWFE bands)",
        ok,
        "; ".join(
            f"{m}={bias:.3f} target {centre:.3f}+-{half:.3f}, pointwise max |z|={z_max:.2f} (<={Z:g})"
            for m, (bias, centre, half, z_max) in checks.items()
        )
        + f"; unsmoothed NAIVE estimand bias {ref.integrated_bias(ref.naive):.3f}"
        + ("" if ok else " - comparator bias departs from the DGP's estimand-level reference"),
    )
    for m, (bias, centre, half, z_max) in checks.items():
        assert half <= REPLACED_HALF_WIDTH[m], f"{m} band half-width {half:.4f} wider than it replaces"
        assert abs(bias - centre) <= half, f"{m} integrated bias {bias:.4f} outside {centre:.4f}+-{half:.4f}"
        assert z_max <= Z, f"{m} mean curve {z_max:.2f} Monte-Carlo SEs from its reference"


def test_study_reports_bandwidth_edge_shares(table1_reports, naive_bandwidths):
    # At n=1000 the default candidate grid is too narrow for NAIVE: in most
    # replicates its top candidate, or the widening fallback beyond it, sets
    # the bandwidth. The study reports both shares per method, equal to the
    # selector's choices rerun replicate by replicate.
    methods = table1_reports[()].methods
    h, top = naive_bandwidths.T
    naive = methods["NAIVE"]
    assert naive.bandwidth_at_grid_edge == pytest.approx(np.mean(h >= top), abs=1e-12)
    assert naive.bandwidth_extended == pytest.approx(np.mean(h > top), abs=1e-12)
    assert 0.6 <= naive.bandwidth_at_grid_edge <= 0.8
    assert 0.0 < naive.bandwidth_extended < naive.bandwidth_at_grid_edge
    for method in ("MR", "IPW"):
        assert 0.0 <= methods[method].bandwidth_at_grid_edge <= 1.0
    assert methods["OR"].bandwidth_at_grid_edge is None and methods["TWFE"].bandwidth_extended is None


# =====================================================================
# Criterion 2: robustness matrix ordering (n=5000, 200 replicates)
# =====================================================================

GREEN = [
    frozenset(),
    frozenset({"pi_a"}),
    frozenset({"mu0"}),
    frozenset({"pi_d"}),
    frozenset({"mu1"}),
    frozenset({"pi_a", "pi_d"}),
    frozenset({"mu0", "mu1"}),
    frozenset({"mu0", "pi_d"}),
    frozenset({"pi_a", "mu1"}),
]
RED = [frozenset({"pi_a", "pi_d", "mu1", "mu0"})]


def test_criterion_2_green_below_red():
    config = ScenarioConfig(
        n=5000,
        replicates=200,
        seed=SEED + 1,
        methods=("MR",),
        workers=WORKERS,
    )
    reports = run_permutation_study(config, all_permutations())
    biases = {perm: _bias(reports, perm, "MR") for perm in all_permutations()}
    worst_green = max(biases[p] for p in GREEN)
    best_red = min(biases[p] for p in RED)
    ok = all(
        biases[g] < biases[r] for g in GREEN for r in RED
    )
    _report(
        "2 (matrix ordering)",
        ok,
        f"max green MR bias {worst_green:.3f} < min red MR bias {best_red:.3f}; "
        f"greens={sorted(round(biases[p], 3) for p in GREEN)}",
    )
    assert ok


def test_criterion_2_irrelevant_spec_invariance():
    data = generate_scenario_data(5000, stream_seed(SEED + 2, 0, ROLE_DATA))
    grid = ground_truth_curve(SEED + 2, super_n=100_000).grid
    cfg = ScenarioConfig(n=5000, replicates=1, seed=SEED + 2)

    or_curves = {}
    ipw_curves = {}
    for perm in all_permutations():
        specs = simulation_specs(cfg, perm)
        or_curves[perm] = estimate_curve(data, "OR", specs=specs, grid=grid).psi
        ipw_curves[perm] = estimate_curve(data, "IPW", specs=specs, grid=grid).psi
    ok = True
    for perm in all_permutations():
        or_twin = frozenset(perm & {"mu0", "mu1"})
        ipw_twin = frozenset(perm & {"pi_a", "pi_d"})
        ok = ok and np.array_equal(or_curves[perm], or_curves[or_twin])
        ok = ok and np.array_equal(ipw_curves[perm], ipw_curves[ipw_twin])
    _report(
        "2 (OR/IPW spec invariance)",
        ok,
        "OR curves bitwise equal across propensity specs; IPW bitwise equal across outcome specs",
    )
    assert ok


# =====================================================================
# Criterion 3: coverage reproduction (n=200, 100 replicates, B=200)
# =====================================================================


def test_criterion_3_coverage():
    config = ScenarioConfig(
        n=200,
        replicates=100,
        seed=SEED + 3,
        methods=("MR",),
        workers=WORKERS,
        inference=InferenceConfig(method="both", b_replicates=200),
    )
    perms = [frozenset(), frozenset({"pi_a", "pi_d", "mu1", "mu0"})]
    reports = run_permutation_study(config, perms)
    good = reports[()].methods["MR"].coverage
    bad = reports[tuple(sorted({"pi_a", "pi_d", "mu1", "mu0"}))].methods["MR"].coverage
    in_band = all(85.0 <= good[m] <= 99.0 for m in ("sandwich", "bootstrap"))
    lower = all(bad[m] < good[m] for m in ("sandwich", "bootstrap"))
    _report(
        "3 (coverage)",
        in_band and lower,
        f"correct specs sandwich={good['sandwich']:.1f}% bootstrap={good['bootstrap']:.1f}% "
        f"(target [85, 99]); all-wrong sandwich={bad['sandwich']:.1f}% bootstrap={bad['bootstrap']:.1f}% (strictly lower)",
    )
    assert in_band
    assert lower


# =====================================================================
# Criterion 4: oracle equivalences
# =====================================================================


def test_criterion_4_oracles():
    data_full = generate_scenario_data(200, stream_seed(SEED + 4, 0, ROLE_DATA))
    idx = np.concatenate([np.nonzero(data_full.a)[0][:30], np.nonzero(~data_full.a)[0][:30]])
    data = TwoPeriodDataset.from_arrays(
        x=data_full.x[idx],
        a=data_full.a[idx],
        dose=data_full.dose[:30],
        y0=data_full.y0[idx],
        y1=data_full.y1[idx],
    )
    models = fit_nuisances(data, SPECS)
    xi, _ = compute_xi_terms(data, models)
    theta00, theta01, _ = compute_theta0(data, models)

    # brute-force loops
    x_t = data.x_treated
    trend = data.trend
    trend_t = trend[data.a]
    w1_loop = np.array(
        [
            float(models.f_marginal(data.dose[i]))
            / float(models.pi_d(data.dose[i], x_t[i][None, :])[0])
            for i in range(30)
        ]
    )
    w1n = w1_loop / w1_loop.mean()
    xi_loop = np.array(
        [
            float(models.m_marginal(data.dose[i]))
            + w1n[i] * (trend_t[i] - float(models.mu1(data.dose[i], x_t[i][None, :])[0]))
            for i in range(30)
        ]
    )
    pa = models.pi_a(data.x)
    num = den = 0.0
    mu0_all = models.mu0(data.x)
    for i in range(60):
        if not data.a[i]:
            w = pa[i] / (1 - pa[i])
            num += w * (trend[i] - mu0_all[i])
            den += w
    theta00_loop = num / den
    theta01_loop = mu0_all[data.a].mean()

    grid = models.dose_nodes[::12]
    m_loop = np.array([np.mean([float(models.mu1(d0, x_t[i][None, :])[0]) for i in range(30)]) for d0 in grid])
    # f is the mean of the unfloored pi_d, floored once (docs/DECISIONS.md,
    # D4), tabulated by a binned mixture whose error is second order in the
    # node step: it is checked to 1e-5 of its peak, the others to 1e-12.
    pi_d = models.pi_d
    loc = [pi_d.location_scale(x_t[i][None, :]) for i in range(30)]
    f_loop = np.array(
        [
            max(
                np.mean(
                    [
                        float(np.interp((d0 - mu[0]) / s[0], pi_d.table_x, pi_d.table_y)) / s[0]
                        for mu, s in loc
                    ]
                ),
                DENSITY_FLOOR,
            )
            for d0 in grid
        ]
    )
    f_gap = float(np.max(np.abs(models.f_marginal(grid) - f_loop)) / np.max(f_loop))

    checks = {
        "xi": np.max(np.abs(xi - xi_loop)),
        "theta00": abs(theta00 - theta00_loop),
        "theta01": abs(theta01 - theta01_loop),
        "m": np.max(np.abs(models.m_marginal(grid) - m_loop)),
    }
    ok = all(v < 1e-12 for v in checks.values()) and f_gap < 1e-5

    # local linear vs direct weighted-normal-equation solve
    rng = np.random.default_rng(SEED)
    xs = rng.uniform(0, 6, 150)
    ys = np.sin(xs) + 0.1 * rng.normal(size=150)
    h = 1.2
    ll_gap = 0.0
    for d0 in np.linspace(0.5, 5.5, 10):
        b0, _ = local_linear_fit(xs, ys, h, float(d0))
        u = (xs - d0) / h
        k = np.where(np.abs(u) <= 1, 0.75 * (1 - u * u), 0.0)
        mat = np.array([[k.sum(), (k * u).sum()], [(k * u).sum(), (k * u * u).sum()]])
        rhs = np.array([(k * ys).sum(), (k * u * ys).sum()])
        ll_gap = max(ll_gap, abs(b0 - np.linalg.solve(mat, rhs)[0]))
    ok = ok and ll_gap < 1e-10

    # sandwich theta0 sub-block vs closed-form weighted-ATT variance
    big = generate_scenario_data(400, stream_seed(SEED + 4, 1, ROLE_DATA))
    models_big = fit_nuisances(big, SPECS)
    curve = estimate_curve(big, "MR", specs=SPECS, models=models_big)
    system = explicit.system_at(big, models_big, curve, float(curve.grid[25]))
    v = explicit.covariance(system)
    big_theta00, big_theta01, _ = compute_theta0(big, models_big)
    big_w0 = control_weights_of(big, models_big).w0
    resid_c = (big.trend - models_big.mu0(big.x))[~big.a]
    psi3 = big_w0 * resid_c - big_theta00
    var00 = float(psi3 @ psi3) / big.n_control**2
    mu0_t = models_big.mu0(big.x)[big.a]
    var01 = float((mu0_t - big_theta01) @ (mu0_t - big_theta01)) / big.n_treated**2
    sand_gap = max(abs(v[2, 2] - var00), abs(v[3, 3] - var01))
    ok = ok and sand_gap < 1e-8

    # bandwidth selection vs exhaustive sweep
    xs2 = np.sort(rng.uniform(0, 2 * np.pi, 80))
    ys2 = np.sin(xs2) + 0.25 * rng.normal(size=80)
    grid2 = np.geomspace(0.3, 3.0, 12)
    chosen = WindowedMoments(xs2, ys2, np.ones(80)).select_bandwidth(grid2)
    best, best_score = None, np.inf
    zero_tol = (1e-10 * np.max(np.abs(ys2))) ** 2 * 80
    for h2 in grid2:
        total, feasible = 0.0, True
        for i in range(80):
            keep = np.arange(80) != i
            try:
                pred, _ = local_linear_fit(xs2[keep], ys2[keep], float(h2), float(xs2[i]))
            except Exception:
                feasible = False
                break
            total += (ys2[i] - pred) ** 2
        if not feasible:
            continue
        if total < zero_tol:
            total = 0.0
        if total < best_score:
            best, best_score = float(h2), total
    ok = ok and (chosen == best)

    _report(
        "4 (oracle equivalences)",
        ok,
        f"pseudo-outcome gaps={max(checks.values()):.1e} (<1e-12); f gap={f_gap:.1e} of its peak (<1e-5); "
        f"local-linear gap={ll_gap:.1e} (<1e-10); "
        f"sandwich sub-block gap={sand_gap:.1e} (<1e-8); bandwidth argmin match={chosen == best}",
    )
    assert ok


# =====================================================================
# Criterion 5: structural invariants
# =====================================================================


def test_criterion_5_invariants(monkeypatch):
    data = generate_scenario_data(400, stream_seed(SEED + 5, 0, ROLE_DATA))
    models = fit_nuisances(data, SPECS)
    w1 = compute_xi_terms(data, models)[1].w1
    theta00, theta01, _ = compute_theta0(data, models)
    w0 = control_weights_of(data, models).w0

    hajek = max(abs(w1.mean() - 1.0), abs(w0.mean() - 1.0))

    nodes = models.dose_nodes
    tw = np.empty(nodes.shape[0])
    tw[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    tw[0] = 0.5 * (nodes[1] - nodes[0])
    tw[-1] = 0.5 * (nodes[-1] - nodes[-2])
    dev = predict_matrix(models.mu1, nodes, data.x_treated) - models.m_marginal(nodes)[None, :]
    j_term = abs(float((dev @ (tw * models.f_marginal(nodes))).mean()))

    curve = estimate_curve(data, "MR", specs=SPECS, models=models)
    identity_gap = float(
        np.max(np.abs(curve.psi - (curve.theta_curve - theta00 - theta01)))
    )

    w = bootstrap_weights(data.a, SEED, 3)
    rescale_gap = max(
        abs(w[data.a].sum() - data.n_treated), abs(w[~data.a].sum() - data.n_control)
    )

    delta = float(curve.grid[20])
    stacked_gap = abs(
        stacked_sandwich_variance([(data, models, curve)], [delta])[0]
        - explicit.variance_at(data, models, curve, delta)
    )

    cfg = EstimatorConfig(method="MR", specs=SPECS, grid=curve.grid, bandwidth=curve.bandwidth)
    monkeypatch.setattr(inference, "bootstrap_weights", lambda a, seed, b: np.ones(len(a)))
    boot = weighted_bootstrap(data, cfg, 2, seed=0)
    forced_bitwise = all(np.array_equal(row, curve.psi) for row in boot.curves)

    ok = (
        hajek < 1e-10
        and j_term < 1e-10
        and identity_gap < 1e-12
        and rescale_gap < 1e-10
        and stacked_gap == 0.0
        and forced_bitwise
    )
    _report(
        "5 (structural invariants)",
        ok,
        f"hajek={hajek:.1e}; J-term={j_term:.1e}; psi identity={identity_gap:.1e}; "
        f"group rescale={rescale_gap:.1e}; stacked-vs-base gap={stacked_gap:.1e}; forced-weights bitwise={forced_bitwise}",
    )
    assert ok


# =====================================================================
# Criterion 6: null and placebo properties (n=5000)
# =====================================================================


def test_criterion_6_null_and_placebo():
    n = 5000
    methods = ("MR", "OR", "IPW", "NAIVE", "TWFE")
    reps = 10
    curves = {m: [] for m in methods}
    grid = None
    for r in range(reps):
        d = generate_null_data(n, stream_seed(SEED + 6, r, 0))
        if grid is None:
            grid = estimate_curve(d, "NAIVE").grid
        for m in methods:
            curves[m].append(estimate_curve(d, m, specs=default_specs(), grid=grid).psi)
    null_ok = True
    worst = {}
    for m in methods:
        arr = np.vstack(curves[m])
        se = arr.std(axis=0, ddof=1)
        ratio = np.max(np.abs(arr[0]) / np.maximum(se, 1e-12))
        worst[m] = ratio
        null_ok = null_ok and bool(np.all(np.abs(arr[0]) < 4 * se))

    naive_rows, mr_rows = [], []
    for r in range(6):
        panel = generate_placebo_panel(n, stream_seed(SEED + 7, r, 0))
        grid_p = None
        naive = placebo_curves(panel, 0, [1], "NAIVE", intervention_period=2, grid=grid_p)[0]
        mr = placebo_curves(panel, 0, [1], "MR", specs=default_specs(), intervention_period=2, grid=naive.grid)[0]
        naive_rows.append(naive.psi)
        mr_rows.append(mr.psi)
    naive_mean = np.vstack(naive_rows).mean(axis=0)
    mr_mean = np.vstack(mr_rows).mean(axis=0)
    separation = np.max(np.abs(naive_mean)) > 4 * np.max(np.abs(mr_mean))
    placebo_ok = separation and np.max(np.abs(mr_mean)) < 0.2 and np.max(np.abs(naive_mean)) > 0.5

    ok = null_ok and placebo_ok
    _report(
        "6 (null and placebo)",
        ok,
        f"null max |psi|/SE over methods={max(worst.values()):.2f} (<4); placebo max|NAIVE|={np.max(np.abs(naive_mean)):.2f} "
        f"vs max|MR|={np.max(np.abs(mr_mean)):.2f}",
    )
    assert null_ok
    assert placebo_ok


# =====================================================================
# Criterion 7: exclusions honoured, long-run path available
# =====================================================================


def test_criterion_7_exclusions():
    # The proprietary application dataset is not part of the artifact; the
    # full 16-permutation grid is reachable through the study API / the
    # simulate command's `permutations: all` key, but not run here.
    perms = all_permutations()
    config = ScenarioConfig(n=200, replicates=1, seed=1, super_n=20_000)
    ok = len(perms) == 16 and config.replicates == 1
    from dosedid.cli import _COMMANDS

    ok = ok and set(_COMMANDS) == {"estimate", "simulate", "placebo", "truth", "validate"}
    _report(
        "7 (exclusions)",
        ok,
        "proprietary application data excluded; 16-permutation long-run grid available behind simulate permutations=all",
    )
    assert ok
