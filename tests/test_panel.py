"""Repeated-period averaging, placebo curves, and outcome scaling."""

import multiprocessing
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from counting import count_formations

from dosedid import curves, inference, nuisance
from dosedid.curves import EstimatorConfig
from dosedid.data import PanelDataset, pair_periods
from dosedid.errors import DataValidationError, EstimationError, FitError
from dosedid.inference import weighted_bootstrap
from dosedid.nuisance import default_specs
from dosedid.panel import estimate_repeated, placebo_curves, scale_outcomes
from dosedid.simulation import (
    generate_placebo_panel,
    generate_scenario_data,
    stream_seed,
)

SPECS = default_specs()


def _panel_from_two_period(data, extra_periods=0, seed=0):
    rng = np.random.default_rng(seed)
    cols = [data.y0, data.y1]
    labels = [0, 1]
    for m in range(extra_periods):
        cols.append(data.y1 + 0.1 * rng.normal(size=data.n))
        labels.append(2 + m)
    return PanelDataset(
        ids=data.ids,
        x=data.x,
        a=data.a,
        dose=data.dose,
        y=np.column_stack(cols),
        period_labels=tuple(labels),
        covariate_names=data.covariate_names,
    )


def test_single_pair_average_is_identity():
    data = generate_scenario_data(400, stream_seed(500, 0, 0))
    panel = _panel_from_two_period(data)
    rep = estimate_repeated(panel, [(0, 1)], "MR", specs=SPECS)
    assert rep.pair_count == 1
    np.testing.assert_array_equal(rep.averaged.psi, rep.per_m[0].psi)
    np.testing.assert_array_equal(rep.averaged.theta_curve, rep.per_m[0].theta_curve)
    assert rep.averaged.theta0 == rep.per_m[0].theta0


def test_duplicated_periods_average_equals_each():
    data = generate_scenario_data(350, stream_seed(500, 1, 0))
    panel = PanelDataset(
        ids=data.ids,
        x=data.x,
        a=data.a,
        dose=data.dose,
        y=np.column_stack([data.y0, data.y1, data.y0, data.y1]),
        period_labels=(0, 1, 2, 3),
        covariate_names=data.covariate_names,
    )
    rep = estimate_repeated(panel, [(0, 1), (2, 3)], "NAIVE")
    np.testing.assert_array_equal(rep.per_m[0].psi, rep.per_m[1].psi)
    np.testing.assert_allclose(rep.averaged.psi, rep.per_m[0].psi, atol=1e-15)


def test_average_is_pointwise_mean():
    data = generate_scenario_data(300, stream_seed(500, 2, 0))
    panel = _panel_from_two_period(data, extra_periods=2, seed=1)
    rep = estimate_repeated(panel, [(0, 1), (0, 2), (0, 3)], "NAIVE")
    stack = np.vstack([c.psi for c in rep.per_m])
    np.testing.assert_allclose(rep.averaged.psi, stack.mean(axis=0), atol=1e-15)


def test_known_per_period_effects_average():
    # dose-free effects c, 2c, 3c in three post periods
    rng = np.random.default_rng(3)
    n = 4000
    c = 0.8
    x = rng.normal(size=(n, 4))
    a = rng.random(n) < 0.5
    dose = rng.normal(3, 1.5, int(a.sum()))
    y0 = 10 + 0.2 * x[:, 0] + 0.05 * rng.normal(size=n)
    posts = []
    for m in (1, 2, 3):
        posts.append(y0 + np.where(a, m * c, 0.0) + 0.05 * rng.normal(size=n))
    panel = PanelDataset(
        ids=tuple(f"u{i}" for i in range(n)),
        x=x,
        a=a,
        dose=dose,
        y=np.column_stack([y0, *posts]),
        period_labels=(0, 1, 2, 3),
        covariate_names=("x1", "x2", "x3", "x4"),
    )
    rep = estimate_repeated(panel, [(0, 1), (0, 2), (0, 3)], "NAIVE")
    assert np.max(np.abs(rep.averaged.psi - 2 * c)) < 0.05


def test_repeated_bootstrap_shares_unit_weights():
    data = generate_scenario_data(260, stream_seed(500, 3, 0))
    panel = PanelDataset(
        ids=data.ids,
        x=data.x,
        a=data.a,
        dose=data.dose,
        y=np.column_stack([data.y0, data.y1, data.y0, data.y1]),
        period_labels=(0, 1, 2, 3),
        covariate_names=data.covariate_names,
    )
    rep = estimate_repeated(
        panel, [(0, 1), (2, 3)], "NAIVE", inference="bootstrap", b_replicates=16, seed=7
    )
    # identical period pairs + shared replicate weights -> identical bands
    np.testing.assert_array_equal(rep.per_m[0].ci_lower, rep.per_m[1].ci_lower)
    np.testing.assert_array_equal(rep.averaged.ci_lower, rep.per_m[0].ci_lower)
    assert rep.averaged.ci_upper is not None


def test_one_pair_repeated_bootstrap_equals_weighted_bootstrap():
    """With one pair, the repeated-period bootstrap is weighted_bootstrap on
    that pair's dataset at the same seed and bandwidth, bit for bit."""
    data = generate_scenario_data(300, stream_seed(500, 6, 0))
    panel = _panel_from_two_period(data, extra_periods=1, seed=4)
    rep = estimate_repeated(panel, [(0, 2)], "MR", specs=SPECS, inference="bootstrap", b_replicates=12, seed=9)
    (curve,) = rep.per_m
    cfg = EstimatorConfig("MR", SPECS, curve.grid, curve.bandwidth, on_out_of_range="clamp")
    boot = weighted_bootstrap(pair_periods(panel, 0, 2), cfg, 12, seed=9)
    for estimate in (curve, rep.averaged):
        np.testing.assert_array_equal(estimate.ci_lower, boot.ci_lower)
        np.testing.assert_array_equal(estimate.ci_upper, boot.ci_upper)
    assert rep.averaged.diagnostics["bootstrap_failures"] == boot.failures == {}


def test_repeated_bootstrap_counts_failures_by_error_class(monkeypatch):
    """A fit that fails on replicate 1's weights (the second pair's) fails
    that replicate alone: the six replicates run as one stack per pair, the
    failing stack is rerun one replicate at a time, and the failure is
    counted under its class."""
    data = generate_scenario_data(260, stream_seed(500, 7, 0))
    panel = _panel_from_two_period(data, extra_periods=1, seed=5)
    original = curves.estimate_curve
    provoking = inference.bootstrap_weights(data.a, 2, 1)
    weighted_calls = []

    def failing(*args, **kwargs):
        weight = args[0].weight
        if not np.all(weight == 1.0):  # a bootstrap replicate's dataset
            weighted_calls.append(weight.shape)
            if args[0].source_pair == (0, 2) and np.any(np.all(weight == provoking, axis=-1)):
                raise FitError("provoked")
        return original(*args, **kwargs)

    # Each pair's curve is built in ``panel`` (``_pair_curves``).
    monkeypatch.setattr("dosedid.panel.estimate_curve", failing)
    monkeypatch.setattr(inference, "pool_size", lambda: 1)  # a forked worker's calls go unrecorded
    rep = estimate_repeated(panel, [(0, 1), (0, 2)], "NAIVE", inference="bootstrap", b_replicates=6, seed=2)
    assert rep.averaged.diagnostics["bootstrap_failures"] == {"FitError": 1}
    assert rep.averaged.diagnostics["bootstrap_failed"] == 1
    assert weighted_calls == [(6, data.n)] * 2 + [(data.n,)] * (2 * 5 + 2)


def test_pooled_repeated_bootstrap_equals_in_process(monkeypatch):
    """Per-pair and averaged bootstrap bands and counts at pool sizes 1 and
    2 (chunks of 13 + 12 rows) are bitwise equal, and no worker outlives
    the call."""
    placebo = generate_placebo_panel(300, 13)
    runs = []
    for size in (1, 2):
        monkeypatch.setattr(inference, "pool_size", lambda: size)
        runs.append(
            estimate_repeated(placebo, [(0, 1), (1, 2)], "MR", specs=SPECS, inference="bootstrap", b_replicates=25, seed=3)
        )
        assert multiprocessing.active_children() == []
    alone, pooled = runs
    for a, b in zip((*alone.per_m, alone.averaged), (*pooled.per_m, pooled.averaged)):
        assert a.ci_lower.tobytes() == b.ci_lower.tobytes()
        assert a.ci_upper.tobytes() == b.ci_upper.tobytes()
    assert alone.averaged.diagnostics == pooled.averaged.diagnostics


def _count_fits(monkeypatch) -> Counter:
    """Count each nuisance fit and each f marginal from here on."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fit_pi_a", "fit_pi_d", "fit_mu1", "fit_mu0"):
        monkeypatch.setattr(nuisance, name, counted(name, getattr(nuisance, name)))
    f = nuisance.DoseDensityModel.marginal_density
    monkeypatch.setattr(nuisance.DoseDensityModel, "marginal_density", counted("f", f))
    return counts


@pytest.mark.parametrize(("choice", "weights"), [("none", 1), ("sandwich", 1), ("bootstrap", 2)])
def test_pairs_fit_the_treatment_side_once_per_weight(monkeypatch, choice, weights):
    """Over three pairs, pi_a, pi_d and f are fit once per weight: once for
    the point curves and, in-process with B = 25 at n = 300, once for the
    bootstrap's one chunk; mu1 and mu0 once per pair and weight (measured:
    1, 1 and 2 for pi_a, pi_d and f; on the parent, once per pair). The
    point curves are bitwise each pair's alone."""
    placebo = generate_placebo_panel(300, 13)
    pairs = [(0, 1), (1, 2), (0, 2)]
    monkeypatch.setattr(inference, "pool_size", lambda: 1)
    counts = _count_fits(monkeypatch)
    rep = estimate_repeated(placebo, pairs, "MR", specs=SPECS, inference=choice, b_replicates=25, seed=3)
    assert counts == Counter(
        {"fit_pi_a": weights, "fit_pi_d": weights, "f": weights, "fit_mu1": 3 * weights, "fit_mu0": 3 * weights}
    )
    for curve, (pre, post) in zip(rep.per_m, pairs):
        alone = curves.estimate_curve(pair_periods(placebo, pre, post), "MR", specs=SPECS, grid=curve.grid)
        assert alone.psi.tobytes() == curve.psi.tobytes() and alone.bandwidth == curve.bandwidth


def test_placebo_pairs_fit_the_treatment_side_once(monkeypatch):
    """Two placebo posts on one baseline fit pi_a, pi_d and f once."""
    placebo = generate_placebo_panel(300, 13)
    counts = _count_fits(monkeypatch)
    out = placebo_curves(placebo, 0, [1, 2], "MR", specs=SPECS)
    assert len(out) == 2
    assert counts == Counter({"fit_pi_a": 1, "fit_pi_d": 1, "f": 1, "fit_mu1": 2, "fit_mu0": 2})


def test_treatment_side_bank_serves_only_the_same_units_and_weight():
    placebo = generate_placebo_panel(200, 4)
    first, second = pair_periods(placebo, 0, 1), pair_periods(placebo, 1, 2)
    grid = nuisance.default_dose_grid(first.dose)
    bank = nuisance.ModelBank(first, grid)
    sibling = nuisance.ModelBank(second, grid, treatment_side=bank)
    assert sibling.fit("pi_d", SPECS["pi_d"]) is bank.fit("pi_d", SPECS["pi_d"])
    assert sibling.marginal("pi_d", SPECS["pi_d"]) is bank.marginal("pi_d", SPECS["pi_d"])
    assert sibling.fit("mu1", SPECS["mu1"]) is not bank.fit("mu1", SPECS["mu1"])
    weighted = replace(second, weight=np.full(second.n, 2.0))
    for data, dose_grid in ((weighted, grid), (second, grid[1:]), (second, None)):
        with pytest.raises(ValueError, match="treatment-side bank"):
            nuisance.ModelBank(data, dose_grid, treatment_side=bank)


def test_period_pairs_form_each_weight_part_once(monkeypatch):
    """The pairs (0, 1), (1, 2) and (0, 2) of a 300-unit placebo panel share
    the first pair's weight parts: one dose-weight formation and one pi_a(X)
    evaluation for the point curves, as many with stacked sandwich bands,
    and two, one per weight, with a 16-replicate bootstrap in one process
    (before they were shared: 3, 6 and 6 of each)."""
    placebo = generate_placebo_panel(300, 13)
    pairs = [(0, 1), (1, 2), (0, 2)]
    monkeypatch.setattr(inference, "pool_size", lambda: 1)
    counts = count_formations(monkeypatch)
    for choice, formed in (("none", 1), ("sandwich", 1), ("bootstrap", 2)):
        counts.clear()
        rep = estimate_repeated(placebo, pairs, "MR", specs=SPECS, inference=choice, b_replicates=16)
        assert (counts["dose weights"], counts["control weights"], counts["pi_a(X)"]) == (formed,) * 3, choice
        assert rep.pair_count == 3 and (choice == "none") == (rep.averaged.ci_lower is None)


def test_repeated_sandwich_builds_one_context_per_pair(monkeypatch):
    data = generate_scenario_data(300, stream_seed(500, 4, 0))
    panel = _panel_from_two_period(data, extra_periods=1, seed=2)
    original = inference._CurveContext.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(inference._CurveContext, "__init__", counted)
    rep = estimate_repeated(panel, [(0, 1), (0, 2)], "MR", specs=SPECS, inference="sandwich")
    assert rep.averaged.grid.shape[0] > 1
    assert len(built) == 2


def test_repeated_stacked_sandwich_runs():
    data = generate_scenario_data(300, stream_seed(500, 4, 0))
    panel = _panel_from_two_period(data, extra_periods=1, seed=2)
    rep = estimate_repeated(panel, [(0, 1), (0, 2)], "MR", specs=SPECS, inference="sandwich")
    assert rep.averaged.ci_lower is not None
    assert np.all(rep.averaged.ci_upper >= rep.averaged.ci_lower)
    with pytest.raises(EstimationError):
        estimate_repeated(panel, [(0, 1)], "NAIVE", inference="sandwich")


def test_placebo_guards():
    panel = generate_placebo_panel(200, 9)
    with pytest.raises(DataValidationError):
        placebo_curves(panel, baseline=0, placebo_posts=[0], method="NAIVE")
    with pytest.raises(DataValidationError):
        placebo_curves(panel, baseline=0, placebo_posts=[2], method="NAIVE", intervention_period=2)


def test_placebo_null_panel_is_flat():
    panel = generate_placebo_panel(3000, 11, confounded=False)
    curves = placebo_curves(panel, baseline=0, placebo_posts=[1], method="NAIVE", intervention_period=2)
    assert len(curves) == 1
    assert np.max(np.abs(curves[0].psi)) < 0.12


def test_placebo_within_bootstrap_se_under_homogeneous_trends():
    """At most 5% of grid points may exceed 4 bootstrap SEs of zero."""
    panel = generate_placebo_panel(5000, 21, confounded=False)
    curve = placebo_curves(panel, 0, [1], "MR", specs=SPECS, intervention_period=2)[0]
    cfg = EstimatorConfig(
        method="MR",
        specs=SPECS,
        grid=curve.grid,
        bandwidth=curve.bandwidth,
        on_out_of_range="clamp",
    )
    boot = weighted_bootstrap(pair_periods(panel, 0, 1), cfg, 100, seed=3)
    se = boot.curves.std(axis=0, ddof=1)
    frac = np.mean(np.abs(curve.psi) > 4 * se)
    assert frac <= 0.05


def test_placebo_confounded_separates_naive_from_mr():
    panel = generate_placebo_panel(3000, 12, confounded=True)
    naive = placebo_curves(panel, baseline=0, placebo_posts=[1], method="NAIVE", intervention_period=2)[0]
    mr = placebo_curves(panel, baseline=0, placebo_posts=[1], method="MR", specs=SPECS, intervention_period=2)[0]
    assert np.max(np.abs(naive.psi)) > 3 * np.max(np.abs(mr.psi))


def test_scale_outcomes():
    data = generate_scenario_data(100, stream_seed(500, 5, 0))
    panel = _panel_from_two_period(data)
    scaled = scale_outcomes(panel, [0])
    np.testing.assert_allclose(scaled.y[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(scaled.y[:, 1], panel.y[:, 1] / panel.y[:, 0], atol=1e-12)
    zeroed = PanelDataset(
        ids=panel.ids,
        x=panel.x,
        a=panel.a,
        dose=panel.dose,
        y=np.column_stack([np.zeros(panel.n), panel.y[:, 1]]),
        period_labels=(0, 1),
        covariate_names=panel.covariate_names,
    )
    with pytest.raises(DataValidationError):
        scale_outcomes(zeroed, [0])
    with pytest.raises(DataValidationError):
        scale_outcomes(panel, [9])
