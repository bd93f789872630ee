"""Property tests of the local linear smoother over small random samples.

Samples have 5 to 60 points; doses are continuous or rounded to create
ties, and weights are positive. Examples are derandomized so the suite is
deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from sandwich_reference import local_linear_curve

from dosedid.curves import robust_select_bandwidth
from dosedid.errors import BandwidthError
from dosedid.numeric import epanechnikov, local_linear_fit

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
