"""Checks of the estimand-level NAIVE/TWFE reference used by criterion 1."""

import numpy as np
import pytest
from comparator_reference import MC_ERROR, SUPER_N, comparator_reference

from dosedid.simulation import ground_truth_curve

SEED = 20240801


@pytest.fixture(scope="module")
def study_truth():
    return ground_truth_curve(SEED)


@pytest.fixture(scope="module")
def documented(study_truth):
    return comparator_reference(study_truth.grid, SEED)


def test_unconfounded_linear_variant_has_no_bias():
    # Trends free of covariates and linear in dose: neither comparator is
    # confounded, and local linear smoothing reproduces a line exactly.
    def treated(x, d):
        return 1.0 + 0.5 * d + 0.0 * x[..., 0]

    def control(x):
        return np.full(x.shape[0], -0.5)

    ref = comparator_reference(
        np.linspace(0.3, 5.7, 50), SEED, treated_trend=treated, control_trend=control
    )
    np.testing.assert_allclose(ref.psi, 1.5 + 0.5 * ref.grid, atol=1e-12)
    assert ref.integrated_bias(ref.naive) <= MC_ERROR
    assert ref.integrated_bias(ref.twfe) <= MC_ERROR
    assert ref.integrated_bias(ref.naive_smoothed(2.4)) <= MC_ERROR


def test_documented_dgp_estimand_biases(documented):
    assert abs(documented.integrated_bias(documented.naive) - 0.156) <= 0.01
    assert abs(documented.integrated_bias(documented.twfe) - 0.262) <= 0.01


def test_draw_matches_study_truth(documented, study_truth):
    # Both integrate the same DGP, and the study truth is exact, so the
    # differences are the reference draw's own Monte-Carlo error.
    #
    # psi: a p-weighted mean over SUPER_N draws of tau(X, delta), whose sd is
    # |TAU_X + delta TAU_XD| (X given A=1 is close to N(m, I)). p(X) varies
    # little (sd 0.04 about 0.48), so weighting inflates the standard error
    # by under 1%. Bound: 4 standard errors at each grid point.
    tau_x = np.array([1.6, -0.1, 0.3, 0.3])
    tau_xd = np.array([-0.1, 0.0, 0.1, 0.0])
    sd = np.linalg.norm(tau_x[None, :] + np.outer(study_truth.grid, tau_xd), axis=1)
    assert np.all(np.abs(documented.psi - study_truth.psi_true) <= 4.0 * 1.01 * sd / np.sqrt(SUPER_N))
    # Density weights: the reference's f(delta) averages the dose density
    # phi((delta - m(X)) / 2) over the draw. m(X) has sd 0.67, so that
    # average's relative sd per draw is about |delta - 3| / 4 * 0.67 <= 0.5
    # on the grid; 4 standard errors is 1.4e-3 relative, doubled for the
    # normalisation. The truth's weights are bin probabilities, not f at the
    # bin centre: they differ by f'' spacing^2 / 24, under 1e-4 relative.
    rel = documented.density_weights / study_truth.density_weights - 1.0
    assert np.max(np.abs(rel)) <= 2 * 4.0 * 0.5 / np.sqrt(SUPER_N) + 1e-4


def test_smoothing_bias_grows_with_bandwidth(documented):
    gaps = [
        np.max(np.abs(documented.naive_smoothed(h) - documented.naive)) for h in (0.5, 1.5, 3.0)
    ]
    assert gaps[0] < 0.005
    assert gaps[0] < gaps[1] < gaps[2]
    with pytest.raises(ValueError, match="reaches past"):
        documented.naive_smoothed(6.0)
