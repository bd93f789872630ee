"""Property tests of the local linear smoother over small random samples,
and of the whole estimator under a constant dose shift.

Samples have 5 to 60 points; doses are continuous or rounded to create
ties, and weights are positive. Examples are derandomized so the suite is
deterministic.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sandwich_reference import local_linear_curve

from dosedid import curves
from dosedid.curves import METHODS, estimate_curve
from dosedid.errors import BandwidthError
from dosedid.numeric import WindowedMoments, default_bandwidth_grid, epanechnikov, local_linear_fit
from dosedid.nuisance import default_specs
from dosedid.simulation import generate_scenario_data

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def samples(draw):
    n = draw(st.integers(5, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, 10.0, n)
    decimals = draw(st.sampled_from([None, 1, 0]))
    if decimals is not None:
        x = np.round(x, decimals)
    y = np.sin(x) + 0.3 * rng.normal(size=n)
    w = rng.uniform(0.2, 3.0, n)
    h = draw(st.floats(0.3, 6.0))
    grid = np.linspace(x.min(), x.max(), 7)
    return x, y, w, h, grid


def _or_error(fn):
    try:
        return fn()
    except BandwidthError as err:
        return err


def robust_select_bandwidth(x, y, sample_weight):
    """The curve engine's leave-one-out choice over the default grid of the
    doses ``x``, from the sample's arrays."""
    return curves.robust_select_bandwidth(WindowedMoments(x, y, sample_weight), default_bandwidth_grid(x))


def _tolerance(x, y, grid, h, w):
    """1e-9 of the response scale times the condition number of each grid
    point's 2x2 normal matrix: the prefix-sum moments carry relative
    rounding, and the solve amplifies it by the conditioning. Every window
    that gets here holds two distinct doses; the others raise."""
    u = (x[None, :] - grid[:, None]) / h
    k = epanechnikov(u) * w[None, :]
    s0, s1, s2 = k.sum(axis=1), (k * u).sum(axis=1), (k * u * u).sum(axis=1)
    cond = np.linalg.cond(np.stack([np.stack([s0, s1], -1), np.stack([s1, s2], -1)], -2))
    return 1e-9 * (1.0 + np.max(np.abs(y))) * cond


def _per_point(curve, grid):
    """``curve`` at each grid point on its own: its value there, or the
    BandwidthError it raises there."""
    return [_or_error(lambda: curve(np.array([d]))[0]) for d in grid]


def _assert_same(first, second, tolerance):
    """At each grid point both raise, or neither does and they agree within
    ``tolerance``."""
    for a, b, tol in zip(first, second, tolerance):
        assert isinstance(a, BandwidthError) == isinstance(b, BandwidthError)
        if not isinstance(a, BandwidthError):
            assert abs(a - b) <= tol


@PROPERTY
@given(samples())
def test_curve_matches_per_point_fit_or_both_raise(sample):
    x, y, w, h, grid = sample
    curve = _or_error(lambda: local_linear_curve(x, y, grid, h, w))
    exact = _or_error(lambda: np.array([local_linear_fit(x, y, h, float(d), w)[0] for d in grid]))
    if isinstance(exact, BandwidthError):
        assert isinstance(curve, BandwidthError) and curve.delta == exact.delta
        return
    assert not isinstance(curve, BandwidthError)
    assert np.all(np.abs(curve - exact) <= _tolerance(x, y, grid, h, w))


@PROPERTY
@given(samples(), st.integers(0, 2**32 - 1))
def test_integer_weights_equal_duplicated_rows(sample, seed):
    # A window with one distinct dose raises either way: one point of
    # weight 3 has too few points, and its three copies are tied.
    x, y, _, h, grid = sample
    counts = np.random.default_rng(seed).integers(1, 4, x.shape[0])
    weighted = _per_point(lambda g: local_linear_curve(x, y, g, h, counts.astype(float)), grid)
    duplicated = _per_point(lambda g: local_linear_curve(np.repeat(x, counts), np.repeat(y, counts), g, h), grid)
    _assert_same(weighted, duplicated, _tolerance(x, y, grid, h, counts.astype(float)))


@PROPERTY
@given(samples(), st.integers(0, 2**32 - 1))
def test_reordering_units_leaves_theta(sample, seed):
    x, y, w, h, grid = sample
    perm = np.random.default_rng(seed).permutation(x.shape[0])
    theta = _per_point(lambda g: local_linear_curve(x, y, g, h, w), grid)
    theta_perm = _per_point(lambda g: local_linear_curve(x[perm], y[perm], g, h, w[perm]), grid)
    _assert_same(theta, theta_perm, _tolerance(x, y, grid, h, w))
    h_loo = _or_error(lambda: robust_select_bandwidth(x, y, sample_weight=w))
    h_loo_perm = _or_error(lambda: robust_select_bandwidth(x[perm], y[perm], sample_weight=w[perm]))
    if isinstance(h_loo, BandwidthError):
        assert isinstance(h_loo_perm, BandwidthError)
    else:
        # The candidates scale with the dose sd, whose sum runs in unit order.
        assert abs(h_loo_perm - h_loo) <= 1e-12 * h_loo


@st.composite
def tied_samples(draw):
    """Integer doses in 0-10, outcomes in 0-9 and weights in 1-3, so doses
    tie and leave-one-out scores tie in exact arithmetic."""
    n = draw(st.integers(6, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(rng.integers(low, high, n).astype(float) for low, high in ((0, 11), (0, 10), (1, 4)))


@PROPERTY
@given(tied_samples(), st.integers(0, 2**32 - 1))
@example(([3, 10, 3, 8, 9, 4, 4, 4], [3, 9, 1, 0, 5, 4, 1, 9], [1, 2, 1, 2, 3, 3, 1, 3]), 3)
@example(([3, 5, 3, 8, 7, 8, 3, 3, 6, 3, 4], [9, 2, 3, 4, 8, 3, 3, 7, 4, 2, 0], [3, 1, 3, 3, 2, 2, 1, 3, 1, 1, 3]), 1)
def test_leave_one_out_ties_go_to_the_smaller_bandwidth_in_any_unit_order(sample, seed):
    """Candidates whose scores tie in exact arithmetic score apart by
    rounding that follows the unit order; the smaller still wins. Compared
    bare, the examples' scores picked 2.04 or 2.83, and 1.00 or 1.93."""
    x, y, w = (np.asarray(v, dtype=float) for v in sample)
    perm = np.random.default_rng(seed).permutation(x.shape[0])
    h_loo = _or_error(lambda: robust_select_bandwidth(x, y, sample_weight=w))
    h_loo_perm = _or_error(lambda: robust_select_bandwidth(x[perm], y[perm], sample_weight=w[perm]))
    if isinstance(h_loo, BandwidthError):
        assert isinstance(h_loo_perm, BandwidthError)
    else:
        # The candidates scale with the dose sd, whose sum runs in unit order.
        assert abs(h_loo_perm - h_loo) <= 1e-12 * h_loo


def _shifted(data, shift):
    return replace(data, dose=data.dose + shift)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    st.integers(150, 400),
    st.integers(0, 2**32 - 1),
    st.floats(-5.0, 5.0).filter(lambda c: abs(c) > 1e-3),
    st.sampled_from([(1,), (1, 2)]),
)
def test_dose_shift_translates_the_grid_and_leaves_psi(n, seed, shift, powers):
    """Adding c to every dose adds c to the default grid and leaves every
    method's psi as it is, when mu1's dose terms span a space closed under
    translation: all powers from 1 up to the highest, here (1,) and (1, 2),
    with any dose-covariate interactions, whose shifted terms c * g_j(x)
    the covariate block spans. MR_PARAMETRIC's dose regression needs the
    same, so it runs on the basis (1, 2, 3). pi_d's mean model absorbs c in
    its intercept, so its residuals, its KDE and f (on translated nodes) do
    not move; the smoothers and TWFE read doses only through differences or
    a linear term beside an intercept. The tolerance, stated before
    measuring, is 1e-8 of (1 + max |psi|) and 1e-12 of the dose scale for
    the grid: the shift only re-rounds the doses and the nodes."""
    data = generate_scenario_data(n, seed)
    moved = _shifted(data, shift)
    specs = default_specs(mu1_dose_powers=powers, mu1_dose_interactions=(0, 2))
    scale = 1.0 + np.max(np.abs(data.dose)) + abs(shift)
    for method in METHODS:
        with mock.patch.object(curves, "PARAMETRIC_BASIS", (1, 2, 3)):
            base = estimate_curve(data, method, specs=specs)
            shifted = estimate_curve(moved, method, specs=specs)
        assert np.max(np.abs(shifted.grid - (base.grid + shift))) <= 1e-12 * scale, method
        assert np.max(np.abs(shifted.psi - base.psi)) <= 1e-8 * (1.0 + np.max(np.abs(base.psi))), method


def test_dose_shift_moves_psi_when_mu1_misses_a_power():
    """mu1 with dose powers (1, 3) lacks d^2, which (d + c)^3 brings in, so
    a shift moves MR's psi by far more than the tolerance above."""
    data = generate_scenario_data(300, 3)
    specs = default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))
    base = estimate_curve(data, "MR", specs=specs)
    shifted = estimate_curve(_shifted(data, 2.0), "MR", specs=specs)
    assert np.max(np.abs(shifted.psi - base.psi)) > 1e-4 * (1.0 + np.max(np.abs(base.psi)))
