"""Pseudo-outcome assembly against direct-formula oracles."""

import numpy as np
import pytest
from marginal_reference import predict_matrix

from dosedid import inference
from dosedid.curves import estimate_curve
from dosedid.data import TwoPeriodDataset
from dosedid.errors import DataValidationError, ExtrapolationError
from dosedid.nuisance import default_specs, fit_nuisances
from dosedid.pseudo import (
    compute_theta0,
    compute_xi_terms,
    control_weights_of,
    normalize_weights,
)
from dosedid.simulation import generate_scenario_data, stream_seed


@pytest.fixture(scope="module")
def fitted():
    data = generate_scenario_data(400, stream_seed(200, 0, 0))
    specs = default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))
    return data, fit_nuisances(data, specs)


# ---------------------------------------------------------------- weights


def test_normalize_constant_weights():
    np.testing.assert_array_equal(normalize_weights(np.array([2.0, 2.0, 2.0])), [1.0, 1.0, 1.0])


def test_normalize_two_point():
    np.testing.assert_allclose(normalize_weights(np.array([1.0, 3.0])), [0.5, 1.5], atol=1e-15)


def test_normalize_random_vectors_mean_one_ratios_kept():
    rng = np.random.default_rng(40)
    for _ in range(100):
        w = rng.uniform(0.01, 50.0, rng.integers(2, 40))
        out = normalize_weights(w)
        assert abs(out.mean() - 1.0) < 1e-12
        i, j = 0, len(w) - 1
        assert abs(out[i] / out[j] - w[i] / w[j]) < 1e-10


def test_normalize_idempotent():
    rng = np.random.default_rng(41)
    w = rng.uniform(0.1, 5.0, 25)
    once = normalize_weights(w)
    np.testing.assert_allclose(normalize_weights(once), once, atol=1e-15)


def test_normalize_rejects_bad_weights():
    with pytest.raises(DataValidationError):
        normalize_weights(np.array([]))
    with pytest.raises(DataValidationError):
        normalize_weights(np.array([1.0, 0.0]))
    with pytest.raises(DataValidationError):
        normalize_weights(np.array([1.0, np.inf]))


# ---------------------------------------------------------------- xi


def test_xi_zero_residual_collapses_to_marginal(fitted):
    data, models = fitted
    mu1_at_obs = models.mu1(data.dose, data.x_treated)
    y1 = data.y1.copy()
    y1[data.a] = data.y0[data.a] + mu1_at_obs  # treated trends exactly interpolated
    exact = TwoPeriodDataset.from_arrays(
        x=data.x, a=data.a, dose=data.dose, y0=data.y0, y1=y1
    )
    xi, _ = compute_xi_terms(exact, models)
    np.testing.assert_allclose(xi, models.m_marginal(data.dose), atol=1e-10)


def test_xi_homogeneous_dose_density_gives_unit_weights(fitted):
    data, models = fitted
    # collapse pi_d to a covariate-free density: constant mean and variance
    flat_pi_d = models.pi_d.with_parameters(
        np.concatenate([[3.0], np.zeros(4)]),
        np.concatenate([[4.0], np.zeros(4)]),
        data.dose,
        data.x_treated,
    )
    from dataclasses import replace
    from dosedid.nuisance import marginalize

    m_curve, f_curve = marginalize(models.mu1, flat_pi_d, data, models.dose_nodes)
    flat_models = replace(models, pi_d=flat_pi_d, m_marginal=m_curve, f_marginal=f_curve)
    _, weights = compute_xi_terms(data, flat_models)
    raw_w1 = weights.f_at_d / weights.pi_d_at
    # f interpolates linearly between its own evenly spaced nodes, pi_d
    # between the KDE table's, so they agree to O(step^2): measured 3.0e-6.
    np.testing.assert_allclose(raw_w1, 1.0, atol=5e-5)
    np.testing.assert_allclose(normalize_weights(raw_w1), 1.0, atol=5e-5)


def test_xi_matches_direct_formula_oracle():
    data = generate_scenario_data(90, stream_seed(200, 1, 0))
    idx = np.concatenate([np.nonzero(data.a)[0][:30], np.nonzero(~data.a)[0][:30]])
    sub = TwoPeriodDataset.from_arrays(
        x=data.x[idx], a=data.a[idx], dose=data.dose[:30], y0=data.y0[idx], y1=data.y1[idx]
    )
    models = fit_nuisances(sub, default_specs())
    xi, weights = compute_xi_terms(sub, models)
    raw_w1 = weights.f_at_d / weights.pi_d_at

    # independently coded elementwise evaluation
    x_t = sub.x_treated
    trend_t = (sub.y1 - sub.y0)[sub.a]
    w_raw = np.array(
        [
            float(models.f_marginal(sub.dose[i]))
            / float(models.pi_d(sub.dose[i], x_t[i][None, :])[0])
            for i in range(30)
        ]
    )
    w_norm = w_raw / w_raw.mean()
    oracle = np.array(
        [
            float(models.m_marginal(sub.dose[i]))
            + w_norm[i] * (trend_t[i] - float(models.mu1(sub.dose[i], x_t[i][None, :])[0]))
            for i in range(30)
        ]
    )
    np.testing.assert_allclose(xi, oracle, atol=1e-12)
    np.testing.assert_allclose(raw_w1, w_raw, atol=1e-12)


def test_xi_out_of_range_dose_errors_or_clamps(fitted):
    data, models = fitted
    dose = data.dose.copy()
    dose[0] = models.m_marginal.x[-1] + 50.0
    shifted = TwoPeriodDataset.from_arrays(
        x=data.x, a=data.a, dose=dose, y0=data.y0, y1=data.y1
    )
    with pytest.raises(ExtrapolationError) as err:
        compute_xi_terms(shifted, models)
    assert shifted.ids[np.nonzero(shifted.a)[0][0]] in str(err.value)
    assert compute_xi_terms(shifted, models, "clamp")[1].clamped == 1


# ---------------------------------------------------------------- theta0


def test_theta0_zero_residual_collapse(fitted):
    data, models = fitted
    mu0_all = models.mu0(data.x)
    y1 = data.y1.copy()
    y1[~data.a] = data.y0[~data.a] + mu0_all[~data.a]
    exact = TwoPeriodDataset.from_arrays(
        x=data.x, a=data.a, dose=data.dose, y0=data.y0, y1=y1
    )
    theta00, theta01, _ = compute_theta0(exact, models)
    assert abs(theta00) < 1e-12
    wt_mean = mu0_all[data.a].mean()
    assert abs(theta01 - wt_mean) < 1e-12


def test_theta0_constant_propensity_is_control_mean(fitted):
    data, models = fitted
    const_pi_a = models.pi_a.with_coefficients(np.zeros(models.pi_a.coefficients.shape[0]))
    from dataclasses import replace

    flat_models = replace(models, pi_a=const_pi_a)
    theta00, _, _ = compute_theta0(data, flat_models)
    w0 = control_weights_of(data, flat_models).w0
    np.testing.assert_allclose(w0, w0[0], atol=1e-15)
    resid_c = (data.y1 - data.y0 - models.mu0(data.x))[~data.a]
    # with equal weights the self-normalized sum is the plain control mean
    assert abs(theta00 - resid_c.mean()) < 1e-12


def test_theta0_matches_loop_oracle():
    data = generate_scenario_data(160, stream_seed(200, 2, 0))
    idx = np.concatenate([np.nonzero(data.a)[0][:30], np.nonzero(~data.a)[0][:30]])
    sub = TwoPeriodDataset.from_arrays(
        x=data.x[idx], a=data.a[idx], dose=data.dose[:30], y0=data.y0[idx], y1=data.y1[idx]
    )
    models = fit_nuisances(sub, default_specs())
    theta00, theta01, _ = compute_theta0(sub, models)

    pa = models.pi_a(sub.x)
    num = den = 0.0
    for i in range(60):
        if not sub.a[i]:
            w = pa[i] / (1 - pa[i])
            num += w * (sub.y1[i] - sub.y0[i] - float(models.mu0(sub.x[i][None, :])[0]))
            den += w
    assert abs(theta00 - num / den) < 1e-12
    mu0_t = [float(models.mu0(sub.x[i][None, :])[0]) for i in range(60) if sub.a[i]]
    assert abs(theta01 - np.mean(mu0_t)) < 1e-12


# ---------------------------------------------------------------- set-level


def test_pseudo_outcome_set_invariants(fitted):
    data, models = fitted
    _, weights = compute_xi_terms(data, models)
    w1, clamped = weights.w1, weights.clamped
    theta00, theta01, _ = compute_theta0(data, models)
    w0 = control_weights_of(data, models).w0
    curve = estimate_curve(data, "MR", models=models)
    assert abs(w1.mean() - 1.0) < 1e-10
    assert abs(w0.mean() - 1.0) < 1e-10
    assert abs(curve.theta0 - (theta00 + theta01)) < 1e-15
    assert abs(inference._CurveContext(data, models, curve).p_hat - data.n_treated / data.n) < 1e-15
    assert clamped == 0


def test_j_term_quadrature_is_zero(fitted):
    data, models = fitted
    nodes = models.dose_nodes
    tw = np.empty(nodes.shape[0])
    tw[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    tw[0] = 0.5 * (nodes[1] - nodes[0])
    tw[-1] = 0.5 * (nodes[-1] - nodes[-2])
    f_vals = models.f_marginal(nodes)
    m_vals = models.m_marginal(nodes)
    dev = predict_matrix(models.mu1, nodes, data.x_treated) - m_vals[None, :]
    j_terms = dev @ (tw * f_vals)
    assert abs(j_terms.mean()) < 1e-10


def test_scale_equivariance():
    data = generate_scenario_data(500, stream_seed(200, 3, 0))
    specs = default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))
    c = 7.0
    scaled = TwoPeriodDataset.from_arrays(
        x=data.x, a=data.a, dose=data.dose, y0=c * data.y0, y1=c * data.y1
    )
    m1 = fit_nuisances(data, specs)
    m2 = fit_nuisances(scaled, specs)
    xi1, _ = compute_xi_terms(data, m1)
    xi2, _ = compute_xi_terms(scaled, m2)
    np.testing.assert_allclose(
        xi2 - m2.m_marginal(scaled.dose), c * (xi1 - m1.m_marginal(data.dose)), rtol=1e-9, atol=1e-9
    )
    t00_1, _, _ = compute_theta0(data, m1)
    t00_2, _, _ = compute_theta0(scaled, m2)
    assert abs(t00_2 - c * t00_1) < 1e-9 * max(1.0, abs(c * t00_1))
