"""Self-contained numerical primitives.

Weighted least squares, IRLS logistic regression, Gaussian kernel density
estimation, binned kernel sums convolved by FFT, the Epanechnikov local
linear smoother, and leave-one-out bandwidth selection. Everything here is pure: no global state, safe to call
from parallel workers.

The weighted kernels (``fit_wls``, ``fit_logistic``, ``silverman_bandwidth``,
``DensityEstimate.on_grid``, ``scale_mixture`` and ``WindowedMoments``) are
written once over (..., n) weights, and each per-row result has the
weight's leading shape: 0-d for a 1-D weight (docs/DECISIONS.md, D10). Each
row's result is bitwise the one that row gets alone, because every
operation on a stack is a per-row BLAS call, FFT, elementwise operation, or
reduction along a C-contiguous last axis, all of which this numpy computes
identically row by row (D7).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BandwidthError, FitError

__all__ = [
    "LinearFit",
    "LogisticFit",
    "DensityEstimate",
    "WindowedMoments",
    "epanechnikov",
    "expit",
    "fit_wls",
    "fit_logistic",
    "local_linear_fit",
    "default_bandwidth_grid",
    "gaussian_kde",
    "interp_rows",
    "linear_predictor",
    "scale_mixture",
    "silverman_bandwidth",
    "PROB_CLIP",
]

# Fitted propensities are clipped into [PROB_CLIP, 1 - PROB_CLIP] before any
# odds ratio is formed, enforcing strict positivity numerically.
PROB_CLIP = 1e-6

_RIDGE_REL = 1e-8
_WLS_MAX_CHOLESKY_RETRIES = 3
_LOGISTIC_TOL = 1e-8  # on IRLS's largest coefficient step
_LOGISTIC_MAX_ITER = 100
_BANDWIDTH_GRID_SIZE = 20  # default leave-one-out candidates
# Leave-one-out scores within this relative distance of the best so far tie
# with it: scores equal in exact arithmetic move with the unit order by
# rounding, up to 16,384 ulps (3.6e-12) on 11 integer-valued units.
_LOO_TIE = 1e-10
# Binned kernel sums work on a grid coarser than their output by a power of
# two, with at least this many steps across the narrowest kernel feature:
# the KDE table's, and scale_mixture's, whose error at 8 steps is still far
# below that of interpolating f between its nodes (docs/DECISIONS.md, D17).
_TABLE_STEPS_PER_FEATURE = 16
_MIXTURE_STEPS_PER_FEATURE = 8
# scale_mixture bins the units whose log scales lie in the densest window of
# this width, over this many Chebyshev points plus this many per unit of the
# window's occupied log-scale range; it sums the others directly, a block of
# at most this many unit x point elements at a time (docs/DECISIONS.md, D4).
_SCALE_WINDOW = 1.0
_MIN_SCALE_NODES = 8
_SCALE_NODES_PER_LOG = 12
_DIRECT_BLOCK = 16_384
# Binned kernel sums over a stack of rows transform at most this many
# (row x FFT point) elements at a time; scale_mixture counts each scale
# point as a row, of its FFT length plus its unit count (the scale point's
# interpolation weights, one per unit).
_SPECTRUM_BLOCK = 1 << 16


def epanechnikov(u: np.ndarray) -> np.ndarray:
    """The Epanechnikov kernel 0.75 (1 - u^2), a symmetric density with
    support [-1, 1]."""
    u = np.asarray(u, dtype=float)
    out = 0.75 * (1.0 - u * u)
    return np.where(np.abs(u) <= 1.0, np.maximum(out, 0.0), 0.0)


@dataclass(frozen=True)
class LinearFit:
    """Weighted least-squares solution; the intercept, when present, is the
    first coefficient (callers put the 1s column first). A fit under a stack
    of weight rows holds one coefficient row, and one ``ridged`` flag, per
    weight row."""

    coefficients: np.ndarray  # (..., q)
    ridged: bool | np.ndarray = False  # (...,)

    def predict(self, design: np.ndarray) -> np.ndarray:
        """(n,) predictions, or (..., n) for stacked coefficients."""
        return linear_predictor(design, self.coefficients)


@dataclass(frozen=True)
class LogisticFit:
    """Maximum-likelihood logistic fit via IRLS; stacked like ``LinearFit``."""

    coefficients: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray

    def predict_proba(self, design: np.ndarray) -> np.ndarray:
        p = expit(linear_predictor(design, self.coefficients))
        return np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)


def linear_predictor(design: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``design @ coefficients`` for a (q,) vector, or for each row of a
    (..., q) stack, giving (..., n): one matrix-vector product per row, so
    a row's values are those of the same call on that row alone."""
    return (np.asarray(design, dtype=float) @ np.asarray(coefficients, dtype=float)[..., None])[..., 0]


def expit(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: with e = exp(-|z|), 1/(1+e)
    where z >= 0 and e/(1+e) elsewhere, bitwise the two-branch form. -|z|
    is min(z, -z), which keeps a NaN's sign."""
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _solve_normal_equations(xtwx: np.ndarray, xtwy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each PSD normal system of a (..., q, q) stack by Cholesky, and
    flag the numerically singular ones, which take the documented ridge
    jitter 1e-8 * trace/q. When any matrix needs the jitter, each is solved
    on its own, so the jitter reaches only the singular ones."""
    try:
        return _cho_solve(np.linalg.cholesky(xtwx), xtwy), np.zeros(xtwx.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    q = xtwx.shape[-1]
    mats, rhs = xtwx.reshape(-1, q, q), xtwy.reshape(-1, q)
    beta, ridged = np.empty(rhs.shape), np.zeros(mats.shape[0], dtype=bool)
    for r, mat in enumerate(mats):
        try:
            chol = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            chol, ridged[r] = _ridged_cholesky(mat), True
        beta[r] = _cho_solve(chol, rhs[r])
    return beta.reshape(xtwy.shape), ridged.reshape(xtwx.shape[:-2])


def _ridged_cholesky(mat: np.ndarray) -> np.ndarray:
    """The Cholesky factor of ``mat`` after adding the ridge jitter, ten
    and a hundred times more, until it factors."""
    q = mat.shape[-1]
    jitter = _RIDGE_REL * (np.trace(mat) / q)
    if jitter <= 0.0 or not np.isfinite(jitter):
        raise FitError("normal matrix has nonpositive trace; design is degenerate")
    ridged = mat
    for attempt in range(_WLS_MAX_CHOLESKY_RETRIES):
        ridged = ridged + (jitter * 10.0**attempt) * np.eye(q)
        try:
            return np.linalg.cholesky(ridged)
        except np.linalg.LinAlgError:
            continue
    raise FitError("normal matrix remained singular after ridge jitter")


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    from numpy.linalg import solve

    # Two triangular solves; numpy lacks a dedicated triangular solver in its
    # public API so fall back to generic solve on the factors.
    y = solve(chol, rhs[..., None])
    return solve(chol.swapaxes(-1, -2), y)[..., 0]


def fit_wls(design: np.ndarray, response: np.ndarray, weights: np.ndarray) -> LinearFit:
    """Minimize sum_i w_i (y_i - x_i . beta)^2.

    Parameters
    ----------
    design : (n, q) array
    response : (n,) array, or (..., n) with one response per weight row.
    weights : (n,) array of nonnegative weights, not all zero; or a (..., n)
        stack of such rows, each fit on its own.

    Returns
    -------
    LinearFit
        ``ridged`` is set when a singular normal matrix required the
        1e-8 * trace/q jitter. A row's coefficients are those of the same
        call on that row alone.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 2:
        raise FitError("design must be a 2-D matrix")
    n, q = x.shape
    if y.shape[-1:] != (n,) or w.shape[-1:] != (n,):
        raise FitError(f"dimension mismatch: design {x.shape}, response {y.shape}, weights {w.shape}")
    if q > n:
        raise FitError(f"more columns ({q}) than rows ({n})")
    if np.any(w < 0):
        raise FitError("weights must be nonnegative")
    if not np.all(np.any(w > 0, axis=-1)):
        raise FitError("weights are all zero")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
        raise FitError("non-finite value in WLS inputs")

    wx = x * w[..., :, None]
    xtwx = x.T @ wx
    xtwy = linear_predictor(wx.swapaxes(-1, -2), y)
    beta, ridged = _solve_normal_equations(xtwx, xtwy)
    return LinearFit(coefficients=beta, ridged=ridged)


def fit_logistic(
    design: np.ndarray,
    labels: np.ndarray,
    sample_weight: np.ndarray | None = None,
) -> LogisticFit:
    """IRLS maximum-likelihood logistic regression.

    Convergence is declared when the largest coefficient change drops below
    ``_LOGISTIC_TOL``; otherwise the fit stops after ``_LOGISTIC_MAX_ITER``
    iterations with ``converged=False`` (the separable-data case).
    Predictions are always clipped into [PROB_CLIP, 1 - PROB_CLIP].

    A (..., n) stack of weight rows fits each row: a row stops iterating
    when it converges, so its iterates, ``converged`` and ``iterations``
    are those it has alone.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, q = x.shape
    if y.shape != (n,):
        raise FitError("labels do not match design rows")
    if not np.all(np.isfinite(x)):
        raise FitError("non-finite value in logistic design")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise FitError("labels must be binary 0/1")
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    pos = np.sum(w * y, axis=-1)
    tot = np.sum(w, axis=-1)
    if np.any(pos <= 0.0) or np.any(pos >= tot):
        raise FitError("both label classes must be present (with positive weight)")
    if q > n:
        raise FitError(f"more columns ({q}) than rows ({n})")

    rows = w.reshape(-1, n)
    beta = np.zeros((rows.shape[0], q))
    converged = np.zeros(rows.shape[0], dtype=bool)
    iterations = np.zeros(rows.shape[0], dtype=int)
    active = np.arange(rows.shape[0])
    for it in range(1, _LOGISTIC_MAX_ITER + 1):
        b, wa = beta[active], rows[active]
        p = expit(linear_predictor(x, b))
        p = np.clip(p, 1e-10, 1.0 - 1e-10)
        irls_w = wa * p * (1.0 - p)
        score = linear_predictor(x.T, wa * (y - p))
        hess = x.T @ (x * irls_w[..., None])
        step, _ = _solve_normal_equations(hess, score)
        beta[active] = b + step
        iterations[active] = it
        done = np.max(np.abs(step), axis=-1) < _LOGISTIC_TOL
        converged[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break
    shape = w.shape[:-1]
    return LogisticFit(
        coefficients=beta.reshape(shape + (q,)),
        converged=converged.reshape(shape),
        iterations=iterations.reshape(shape),
    )


def local_linear_fit(
    xs: np.ndarray,
    ys: np.ndarray,
    h: float,
    delta: float,
    sample_weight: np.ndarray | None = None,
) -> tuple[float, float]:
    """Local linear regression of ``ys`` on ``xs`` at target ``delta``.

    Fits weighted least squares of y on (1, (x - delta)/h) with weights
    epanechnikov((x - delta)/h), optionally multiplied by per-point sample
    weights. The intercept is the curve estimate at ``delta``; the slope is
    in rescaled (x - delta)/h units. This literal solve is the reference for
    ``WindowedMoments.fit`` and its fallback for near-singular windows.

    Raises
    ------
    BandwidthError
        If fewer than two points carry positive kernel weight, or if all of
        them share one dose, where the line is not identified.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    sample_weight = np.ones(x.shape) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    if h <= 0 or not np.isfinite(h):
        raise BandwidthError(f"bandwidth must be positive, got {h}", delta=delta)
    u = (x - delta) / h
    k = epanechnikov(u)
    inside = k > 0.0
    if int(np.count_nonzero(inside)) < 2:
        raise _window_error(delta, h, tied=False)
    if np.min(x[inside]) == np.max(x[inside]):
        raise _window_error(delta, h, tied=True)
    w = k * sample_weight
    ui = u[inside]
    design = np.column_stack([np.ones(ui.shape[0]), ui])
    fit = fit_wls(design, y[inside], w[inside])
    return float(fit.coefficients[0]), float(fit.coefficients[1])


def _window_error(delta: float, h: float, tied: bool) -> BandwidthError:
    what = "only tied doses" if tied else "fewer than 2 points"
    return BandwidthError(f"{what} inside the kernel window at delta={delta} with h={h}", delta=delta)


class WindowedMoments:
    """Epanechnikov local linear moments of one weighted sample.

    With u = (x - t)/h, the moments at a target t are s_j = sum w K(u) u^j
    (j <= 2) and t_j = sum w K(u) u^j y (j <= 1). K is a polynomial on its
    support, so each is a binomial combination of the window's power sums of
    w x^k and w y x^k, kept as prefix sums of the sorted, centred sample:
    any window costs two binary searches (Fan & Marron 1994, JCGS).

    ``ys`` and ``sample_weight`` are (..., n) over the shared ``xs``: the
    sample is sorted once, the prefix sums run along the last axis, and
    every moment and fit has the leading shape of ``ys`` and
    ``sample_weight`` broadcast, each row as its own sample gives it.
    ``order`` is the stable sort of ``xs``, and ``x_sorted``, ``y_sorted``
    and ``w_sorted`` are the sample in that order.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, sample_weight: np.ndarray):
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        w = np.asarray(sample_weight, dtype=float)
        if x.ndim != 1 or y.shape[-1:] != x.shape or w.shape[-1:] != x.shape:
            raise FitError(f"dimension mismatch: xs {x.shape}, ys {y.shape}, weights {w.shape}")
        # One non-finite value would spread to every later prefix sum.
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
            raise FitError("non-finite value in local linear inputs")
        if np.any(w < 0):
            raise FitError("weights must be nonnegative")
        # The literal fallback's rows: ``ys`` and weights broadcast together.
        self._literal = (x, *np.broadcast_arrays(y, w))
        self.order = order = np.argsort(x, kind="stable")
        xo, yo, wo = x[order], np.ascontiguousarray(y[..., order]), np.ascontiguousarray(w[..., order])
        self.x_sorted, self.y_sorted, self.w_sorted = xo, yo, wo
        self._centre = float(np.mean(xo))
        self._xc = xc = xo - self._centre  # centring bounds the power sums
        self._pref = [_prefix_sums(wo * xc**k) for k in range(5)]
        self._qref = [_prefix_sums(wo * yo * xc**k) for k in range(4)]

    def row(self, index: int) -> "WindowedMoments":
        """The window of row ``index`` of a stack of ``ys`` over one weight
        row, sharing this window's sort and weight sums: every moment and
        fit is bitwise the one a window built over that row alone gives."""
        out = copy.copy(self)
        x, y, w = self._literal
        out._literal = (x, y[index], w[index])
        out.y_sorted = self.y_sorted[index]
        out._qref = [q[index] for q in self._qref]
        return out

    def moments(self, targets: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
        """``(s0, s1, s2, t0, t1, first, stop)`` at each target: the sorted
        points ``first`` to ``stop - 1`` lie strictly inside the window, the
        ones with positive kernel weight."""
        if h <= 0 or not np.isfinite(h):
            raise BandwidthError(f"bandwidth must be positive, got {h}")
        t = np.asarray(targets, dtype=float) - self._centre
        xc = self._xc
        first = np.searchsorted(xc, t - h, side="right")
        stop = np.searchsorted(xc, t + h, side="left")
        # ``take`` is numpy's fastest gather along the last axis, stacked or not.
        m = [p.take(stop, axis=-1) - p.take(first, axis=-1) for p in self._pref]
        q = [p.take(stop, axis=-1) - p.take(first, axis=-1) for p in self._qref]
        t2 = t * t
        a1 = m[1] - t * m[0]
        a2 = m[2] - 2.0 * t * m[1] + t2 * m[0]
        a3 = m[3] - 3.0 * t * m[2] + 3.0 * t2 * m[1] - t2 * t * m[0]
        a4 = m[4] - 4.0 * t * m[3] + 6.0 * t2 * m[2] - 4.0 * t2 * t * m[1] + t2 * t2 * m[0]
        b0 = q[0]
        b1 = q[1] - t * q[0]
        b2 = q[2] - 2.0 * t * q[1] + t2 * q[0]
        b3 = q[3] - 3.0 * t * q[2] + 3.0 * t2 * q[1] - t2 * t * q[0]

        h2 = h * h
        s0 = 0.75 * (m[0] - a2 / h2)
        s1 = 0.75 * (a1 - a3 / h2) / h
        s2 = 0.75 * (a2 - a4 / h2) / h2
        t0 = 0.75 * (b0 - b2 / h2)
        t1 = 0.75 * (b1 - b3 / h2) / h
        return s0, s1, s2, t0, t1, first, stop

    def fit(self, targets: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Intercepts and slopes at each target, as ``local_linear_fit`` gives
        them. A BandwidthError carries the first target whose window holds
        fewer than two points or only one dose (the prefix sums' rounding
        would pass for a determinant there)."""
        return self.solve(targets, h, self.moments(targets, h))

    def solve(self, targets: np.ndarray, h: float, moments: tuple) -> tuple[np.ndarray, np.ndarray]:
        """``fit`` from the ``moments(targets, h)`` a caller already holds."""
        targets = np.asarray(targets, dtype=float)
        s0, s1, s2, t0, t1, first, stop = moments
        last = self.x_sorted.shape[0] - 1
        bad = (stop - first < 2) | (self.x_sorted[np.minimum(first, last)] == self.x_sorted[np.maximum(stop - 1, 0)])
        if np.any(bad):
            k = int(np.argmax(bad))
            raise _window_error(float(targets[k]), h, tied=bool(stop[k] - first[k] >= 2))
        x, y, w = self._literal

        def literal(index):
            return local_linear_fit(x, y[index[:-1]], h, float(targets[index[-1]]), w[index[:-1]])

        return _solve_local_linear(s0, s1, s2, t0, t1, literal)

    def select_bandwidth(self, grid: np.ndarray) -> float | np.ndarray:
        """Pick the candidate of ``grid`` minimizing leave-one-out squared
        error over this window's sample.

        For each candidate h the exact leave-one-out local linear prediction
        is computed at every point; candidates for which any leave-one-out
        fit is infeasible (fewer than two remaining in-window points) are
        skipped. Scores below the interpolation tolerance (see
        ``_loo_zero_tolerance``) count as exact zeros, a score within a
        relative ``_LOO_TIE`` of the best so far ties with it, and ties go
        to the smaller bandwidth, whatever the unit order.

        The window must hold one weight row. Its ``ys`` may be an (R, n)
        stack of targets: each row gets the bandwidth it gets alone, from
        one pass over the candidates that forms the weight's moments once
        (see ``_loo_score``). A 1-D ``ys`` gives a Python float, a stack an
        (R,) array.

        Raises
        ------
        BandwidthError
            If the grid is empty or every candidate fails.
        """
        cand = np.unique(np.asarray(grid, dtype=float))
        if cand.size == 0:
            raise BandwidthError("empty bandwidth grid")
        if self.w_sorted.ndim != 1:
            raise FitError(f"bandwidth selection takes one weight row, got weights {self.w_sorted.shape}")
        shape = self.y_sorted.shape[:-1]
        rows = self.y_sorted.reshape(-1, self.x_sorted.size)
        zero_tol = np.reshape([_loo_zero_tolerance(y, self.w_sorted) for y in rows], shape)
        best_h = np.full(shape, np.nan)
        best_score = np.full(shape, np.inf)
        for h in cand:
            score = _loo_score(self, float(h))
            if score is None:
                continue
            score = np.where(score < zero_tol, 0.0, score)
            better = score < best_score * (1.0 - _LOO_TIE)
            best_score = np.where(better, score, best_score)
            best_h = np.where(better, h, best_h)
        if np.any(np.isnan(best_h)):
            raise BandwidthError("no feasible bandwidth candidate (all leave-one-out fits failed)")
        return best_h.item() if best_h.ndim == 0 else best_h


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, after a leading zero."""
    out = np.empty(values.shape[:-1] + (values.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.cumsum(values, axis=-1, out=out[..., 1:])
    return out


def _solve_local_linear(s0, s1, s2, t0, t1, fallback):
    """Solve [[s0, s1], [s1, s2]] (a, b) = (t0, t1) per window, or call
    ``fallback(index)`` where the determinant vanishes relative to s0 * s2
    (``index`` is the window's index tuple, its last entry the target's).
    Windows whose points are all tied never get here."""
    den = s0 * s2 - s1 * s1
    good = np.abs(den) > 1e-12 * np.abs(s0 * s2) + 1e-300
    safe = np.where(good, den, 1.0)
    intercept = (s2 * t0 - s1 * t1) / safe
    slope = (s0 * t1 - s1 * t0) / safe
    # A row of ``t0``, ``t1`` over shared weight moments falls back wherever
    # the shared determinant does.
    for index in zip(*np.nonzero(~np.broadcast_to(good, intercept.shape))):
        intercept[index], slope[index] = fallback(index)
    return intercept, slope


def default_bandwidth_grid(xs: np.ndarray) -> np.ndarray:
    """Log-spaced candidate bandwidths from 0.5 to 4 times sigma * n^(-1/5).

    The n^(-1/5) scaling keeps the default grid inside the h -> 0,
    n h^3 -> infinity regime required for consistency of the local linear
    smoother.
    """
    x = np.asarray(xs, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise BandwidthError("need at least 2 points to build a bandwidth grid")
    sigma = float(np.std(x, ddof=1))
    if sigma <= 0.0:
        raise BandwidthError("zero spread in xs; no meaningful bandwidth grid")
    scale = sigma * n ** (-0.2)
    return np.geomspace(0.5 * scale, 4.0 * scale, _BANDWIDTH_GRID_SIZE)


def _loo_zero_tolerance(ys: np.ndarray, weights: np.ndarray) -> float:
    # Scores below (1e-10 * max|y|)^2 * sum(w) are rounding junk from an
    # interpolating fit; treating them as exact zeros makes the smallest-h
    # tie rule deterministic in the noiseless regime.
    scale = float(np.max(np.abs(ys))) if ys.size else 0.0
    return (1e-10 * scale) ** 2 * float(np.sum(weights))


def _loo_score(window: WindowedMoments, h: float) -> np.ndarray | None:
    """Exact weighted LOO score of each row of ``window``'s ``ys`` for one
    candidate, or None if the candidate is infeasible.

    Feasibility, and which windows take the literal fallback, depend only
    on the doses, the 1-D weight and h, so every row skips the same
    candidates and falls back at the same windows; the weight's moments
    s0, s1, s2 are formed once for all rows (docs/DECISIONS.md, D11).
    """
    xo, yo, wo = window.x_sorted, window.y_sorted, window.w_sorted
    s0, s1, s2, t0, t1, first, stop = window.moments(xo, h)
    # Each LOO fit needs two in-window points besides the held-out one, and
    # is not identified when those are all tied.
    if np.any(stop - first < 3):
        return None
    pos = np.arange(xo.shape[0])
    if np.any(xo[first + (pos == first)] == xo[stop - 1 - (pos == stop - 1)]):
        return None

    def literal(index):
        keep = pos != index[-1]
        return local_linear_fit(xo[keep], yo[index[:-1]][keep], h, float(xo[index[-1]]), sample_weight=wo[keep])

    # Dropping point i only touches the zeroth-order sums (u_i = 0 there).
    try:
        pred, _ = _solve_local_linear(s0 - 0.75 * wo, s1, s2, t0 - 0.75 * wo * yo, t1, literal)
    except BandwidthError:
        return None
    resid = yo - pred
    return np.sum(wo * resid * resid, axis=-1)


def silverman_bandwidth(samples: np.ndarray, sample_weight: np.ndarray | None = None) -> float | np.ndarray:
    """Silverman's rule of thumb, 1.06 * sigma * n^(-1/5).

    Sigma is the ddof-1 sample deviation; with weights, its frequency-weight
    analog (identical arithmetic when the weights are all ones, so weighted
    and unweighted calls agree bitwise on unit weights). (..., n) stacks of
    samples or weights give one bandwidth per row: an array of their
    leading shape.
    """
    s = np.asarray(samples, dtype=float)
    n = s.shape[-1]
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    wsum = np.sum(w, axis=-1)
    mu = np.sum(w * s, axis=-1) / wsum
    denom = wsum - np.sum(w * w, axis=-1) / wsum
    if np.any(denom <= 0.0):
        raise FitError("cannot form a bandwidth from fewer than 2 effective samples")
    sigma = np.sqrt(np.sum(w * (s - mu[..., None]) ** 2, axis=-1) / denom)
    return 1.06 * sigma * n ** (-0.2)


@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian kernel density over a fixed sample.

    Evaluates to a nonnegative density integrating to one (up to quadrature
    tolerance) over any range padded by a few bandwidths beyond the samples.
    ``samples`` and ``weights`` are (..., n), with one ``bandwidth`` per
    row of their leading shape; ``on_grid`` tabulates every row's density,
    while ``__call__`` evaluates one sample's.
    """

    samples: np.ndarray
    bandwidth: np.ndarray
    weights: np.ndarray  # normalized to sum 1 along the last axis

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w / np.sum(w, axis=-1, keepdims=True))

    def __call__(self, x) -> np.ndarray | float:
        xq = np.asarray(x, dtype=float)
        scalar = xq.ndim == 0
        flat = np.atleast_1d(xq).ravel()
        out = np.empty(flat.shape[0])
        bw = self.bandwidth
        norm = 1.0 / (bw * np.sqrt(2.0 * np.pi))
        # Chunks of at most 16,384 elements keep each (n_eval x n_samples)
        # temporary within glibc's default mmap threshold of 128 KiB: larger
        # ones are mapped and zeroed afresh on every call, a page fault per
        # 4 KiB page.
        step = max(1, 16_384 // max(1, self.samples.shape[0]))
        for start in range(0, flat.shape[0], step):
            z = (flat[start : start + step, None] - self.samples[None, :]) / bw
            out[start : start + step] = norm * (np.exp(-0.5 * z * z) @ self.weights)
        result = out.reshape(np.atleast_1d(xq).shape)
        return float(result[0]) if scalar else result

    def on_grid(self, lo, hi, size: int) -> np.ndarray:
        """The density at ``np.linspace(lo, hi, size)`` by binning.

        Each weighted sample is spread over its four neighbouring points of
        a working grid by 4-point Lagrange weights, the masses are convolved
        with the Gaussian by one FFT, and the result is carried to the
        output points by 4-point Lagrange interpolation: O(n + size log
        size) in place of ``__call__``'s n x size kernel sums (the binned
        estimator of Silverman 1982, AS 176, and Hall & Wand 1996, with
        weights that reproduce cubics, so the error is fourth order in the
        working step; see ``_work_grid``, here with
        ``_TABLE_STEPS_PER_FEATURE`` steps across the bandwidth). Samples
        must lie in [lo, hi].

        A stack gives (..., size), and ``lo`` and ``hi`` may hold one value
        per row. Each row keeps its own working grid; the rows whose grids
        share a step count share one batched FFT and one set of refinement
        weights, so every row's table is the one it gets alone (at most
        ``_SPECTRUM_BLOCK`` FFT points at a time).
        """
        bandwidth = np.asarray(self.bandwidth, dtype=float)
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        shape = np.broadcast_shapes(self.samples.shape[:-1], self.weights.shape[:-1], bandwidth.shape, lo.shape, hi.shape)
        n = self.samples.shape[-1]
        samples, weights = (np.broadcast_to(v, shape + (n,)).reshape(-1, n) for v in (self.samples, self.weights))
        bandwidth, lo, hi = (np.broadcast_to(v, shape).reshape(-1) for v in (bandwidth, lo, hi))
        steps = (hi - lo) / (size - 1)
        grids = [_work_grid(b, step, size, _TABLE_STEPS_PER_FEATURE) for b, step in zip(bandwidth, steps)]
        out = np.empty((lo.shape[0], size))
        for (coarse, work), group in _groups(grids).items():
            refine = _refinement(coarse, work, size)
            per_block = max(1, _SPECTRUM_BLOCK // _fft_length(int(2 * work - 1)))
            for first_row in range(0, group.shape[0], per_block):
                rows = group[first_row : first_row + per_block]
                step = steps[rows] * coarse
                first, lag_w = _lagrange4((samples[rows] - lo[rows, None]) / step[:, None], work)
                mass = _bin_rows(first, lag_w * weights[rows], work)
                z = np.arange(1 - work, work) * (step / bandwidth[rows])[:, None]
                kernel = np.exp(-0.5 * z * z) / (bandwidth[rows, None] * np.sqrt(2.0 * np.pi))
                out[rows] = np.maximum(_refine(_convolve_valid(mass, kernel, work), size, refine), 0.0)
        return out.reshape(shape + (size,))


def _groups(keys) -> dict:
    """The indices of the rows sharing each key, keys in first-seen order."""
    groups: dict = {}
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    return {key: np.array(rows) for key, rows in groups.items()}


def _bin_rows(first: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """(rows, count) sums of ``values[j]`` (a (4, rows, n) array) into the
    bins ``first + j`` of their row: each bin adds its terms in the order
    of a one-row call."""
    rows = first.shape[0]
    index = np.arange(rows)[:, None, None] * count + first[:, None, :] + np.arange(4)[:, None]
    mass = np.bincount(index.ravel(), values.swapaxes(0, 1).ravel(), minlength=rows * count)
    return mass.reshape(rows, count)


def _fft_length(n: int) -> int:
    """The power of two at or above ``n``, an FFT length."""
    return 1 << max(0, (n - 1).bit_length())


def _convolve_valid(signal: np.ndarray, kernel: np.ndarray, size: int) -> np.ndarray:
    """``out[j] = sum_m signal[m] * kernel[j - m + len(signal) - 1]`` for
    ``j < size``, by one FFT product along the last axis. ``kernel`` holds
    the lags from ``1 - len(signal)`` to ``size - 1``, so no output wraps
    around."""
    n = _fft_length(kernel.shape[-1])
    full = np.fft.irfft(np.fft.rfft(signal, n) * np.fft.rfft(kernel, n), n)
    return full[..., signal.shape[-1] - 1 : signal.shape[-1] - 1 + size]


def _work_grid(feature_width: float, step: float, size: int, steps_per_feature: int) -> tuple[int, int]:
    """``(coarse, work)``: the working grid of a binned kernel sum whose
    ``size`` output points lie ``step`` apart. Its step is ``coarse`` output
    steps, the largest power of two leaving ``steps_per_feature`` steps
    across ``feature_width``; 4-point Lagrange binning and interpolation
    err in the fourth power of the working step over the feature width:
    a few 1e-8 of the peak at 16 steps, which ``on_grid``'s KDE table
    takes, and up to about 1.5e-7 more at 8, which ``_binned_mixture``
    takes (docs/DECISIONS.md, D17). It has ``work`` >= 4 points from the first
    output point to at or past the last."""
    coarse = 1
    while feature_width >= 2 * coarse * step * steps_per_feature and 2 * coarse <= (size - 1) // 3:
        coarse *= 2
    return coarse, -(-(size - 1) // coarse) + 1


def _refinement(coarse: int, work: int, size: int) -> tuple[np.ndarray, np.ndarray] | None:
    """What ``_refine`` reads to carry values on the ``work`` points of a
    working grid ``coarse`` output steps apart to the ``size`` output
    points: nothing when the grids coincide, else the first indices and
    weights of 4-point Lagrange interpolation. Formed once per group of
    rows on one working grid, and read by each block of the group."""
    return None if coarse == 1 else _lagrange4(np.arange(size) / coarse, work)


def _refine(values: np.ndarray, size: int, refinement) -> np.ndarray:
    """Values on a working grid (the last axis) carried to the ``size``
    output points by the ``_refinement`` of that grid."""
    if refinement is None:
        return values[..., :size]
    first, weights = refinement
    out = np.take(values, first, axis=-1)
    out *= weights[0]
    term = np.empty_like(out)
    for j in range(1, 4):
        np.take(values, first + j, axis=-1, out=term)
        term *= weights[j]
        out += term
    return out


def _lagrange4(pos: np.ndarray, count) -> tuple[np.ndarray, np.ndarray]:
    """First index and (4, ...) weights of 4-point Lagrange interpolation at
    fractional positions ``pos`` on the points 0 .. count - 1 (count >= 4,
    or an array of counts broadcasting against ``pos``). Each position uses
    the four points around it, shifted inward at the ends; the weights sum
    to one and reproduce cubics exactly."""
    first = np.clip(np.floor(pos).astype(np.intp) - 1, 0, np.asarray(count) - 4)
    t = pos - first
    weights = np.stack(
        [
            -(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0,
            t * (t - 2.0) * (t - 3.0) / 2.0,
            -t * (t - 1.0) * (t - 3.0) / 2.0,
            t * (t - 1.0) * (t - 2.0) / 6.0,
        ]
    )
    return first, weights


def _chebyshev_weights(x: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (rows, n) ``x``: ``count[row]`` Chebyshev points of
    the second kind over [min x, max x], and the barycentric weights that
    interpolate a function of x from its values there. A constant row
    needs one point. The result is (rows, S) points and (rows, S, n)
    weights for S the largest count; a row's points beyond its own count
    carry zero weight, so sums over the points equal the row's own."""
    lo, hi = x.min(axis=-1), x.max(axis=-1)
    flat = ~(hi > lo)
    count = np.where(flat, 1, count)
    k = np.arange(int(count.max()))
    live = k < count[:, None]
    cheb = np.cos(np.pi * k / np.maximum(count - 1, 1)[:, None])
    bary = np.where(k % 2 == 0, 1.0, -1.0) * np.where((k == 0) | (k == count[:, None] - 1), 0.5, 1.0) * live
    span = np.where(flat, 1.0, hi - lo)
    diff = ((2.0 * x - lo[:, None] - hi[:, None]) / span[:, None])[:, None, :] - cheb[:, :, None]
    on_node = (diff == 0.0) & live[:, :, None]
    ratio = bary[:, :, None] / np.where(on_node | ~live[:, :, None], 1.0, diff)
    weights = ratio / np.sum(ratio, axis=-2, keepdims=True)
    weights = np.where(np.any(on_node, axis=-2, keepdims=True), on_node, weights)
    nodes = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * cheb
    nodes[flat, 0] = lo[flat]
    weights[flat] = k[:, None] == 0
    return nodes, weights


def interp_rows(values: np.ndarray, table_x: np.ndarray, table_y: np.ndarray) -> np.ndarray:
    """``np.interp`` through (..., T) tables: for each index of the tables'
    broadcast leading shape, the values at that index of ``values``'s
    leading axes are read through the tables at that index, by the same
    call one table makes. Tables without leading axes read all of
    ``values``; the result has its shape."""
    table_x, table_y = np.asarray(table_x), np.asarray(table_y)
    lead = np.broadcast(table_x[..., 0], table_y[..., 0]).shape
    # Only a table whose leading shape differs is broadcast (a view).
    table_x, table_y = (
        t if t.shape[:-1] == lead else np.broadcast_to(t, lead + t.shape[-1:]) for t in (table_x, table_y)
    )
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape)
    for row in itertools.product(*map(range, lead)):
        out[row] = np.interp(values[row], table_x[row], table_y[row])
    return out


def scale_mixture(
    table_x: np.ndarray,
    table_y: np.ndarray,
    centres: np.ndarray,
    scales: np.ndarray,
    weights: np.ndarray,
    lo: float,
    hi: float,
    size: int,
    feature_width,
) -> np.ndarray:
    """``sum_i weights_i * g((d - centres_i) / scales_i) / scales_i`` at
    ``d = np.linspace(lo, hi, size)``, for g the piecewise-linear function
    through ``(table_x, table_y)``, whose narrowest feature is
    ``feature_width`` wide (a kernel bandwidth).

    Units whose kernel support misses [lo, hi] add nothing and are dropped.
    The units whose log scale lies in the densest window of width
    ``_SCALE_WINDOW`` are binned (``_binned_mixture``): O(n + S W log W)
    for a working grid of W <= size points with
    ``_MIXTURE_STEPS_PER_FEATURE`` steps across the narrowest scaled
    feature, in place of n x size kernel evaluations. The rest, scale
    outliers such as a variance fit near its floor, are summed directly at
    the output points, so no outlier widens the binned scale range or
    narrows its working grid.

    The table, the units and ``feature_width`` may carry a leading row
    axis: the result is then one (rows, size) mixture per row over the
    shared output points, and each row's is the one it gets alone.
    """
    centres, scales, weights = np.broadcast_arrays(centres, scales, weights)
    lead = centres.shape[:-1]
    n = centres.shape[-1]
    c, s, w = (v.reshape(-1, n) for v in (centres, scales, weights))
    rows = c.shape[0]
    tx, ty = (np.broadcast_to(v, (rows, np.shape(v)[-1])) for v in (table_x, table_y))
    fw = np.broadcast_to(np.asarray(feature_width, dtype=float), lead).reshape(-1)
    keep = ~((lo - c > s * tx[:, -1:]) | (hi - c < s * tx[:, :1]))
    log_s = np.log(s)
    binned = _densest_window(log_s, keep)
    out = np.zeros((rows, size))
    _binned_mixture(tx, ty, c, s, w, binned, lo, hi, size, fw, out)
    d = np.linspace(lo, hi, size)
    block = max(1, _DIRECT_BLOCK // size)
    for r in np.nonzero(np.any(keep & ~binned, axis=-1))[0]:
        rest = np.nonzero(keep[r] & ~binned[r])[0]
        for first in range(0, rest.shape[0], block):
            unit = rest[first : first + block]
            dens = np.interp((d[None, :] - c[r, unit, None]) / s[r, unit, None], tx[r], ty[r])
            out[r] += w[r, unit] @ (dens / s[r, unit, None])
    return out.reshape(lead + (size,))


def _densest_window(log_s: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per row of ``log_s``, the kept units whose log scale lies in the
    densest window of width ``_SCALE_WINDOW`` (the lowest such window)."""
    low = np.min(log_s, axis=-1, where=keep, initial=np.inf)
    high = np.max(log_s, axis=-1, where=keep, initial=-np.inf)
    binned = keep.copy()
    for r in np.nonzero(high > low + _SCALE_WINDOW)[0]:
        ordered = np.sort(log_s[r, keep[r]])
        reach = np.searchsorted(ordered, ordered + _SCALE_WINDOW, side="right") - np.arange(ordered.shape[0])
        start = ordered[int(np.argmax(reach))]
        binned[r] &= (log_s[r] >= start) & (log_s[r] <= start + _SCALE_WINDOW)
    return binned


def _binned_mixture(table_x, table_y, centres, scales, weights, binned, lo, hi, size, feature_width, out) -> None:
    """Add to each row of ``out`` the ``scale_mixture`` of that row's
    ``binned`` units, by binning. The sum is formed on a working grid
    (``_work_grid`` with ``_MIXTURE_STEPS_PER_FEATURE`` steps across the
    narrowest scaled feature: half the KDE table's, as the mixture's error
    there stays below that of interpolating f between its nodes; see
    docs/DECISIONS.md, D17) and carried to the output points by
    ``_refine``. Each unit's weight is spread by 4-point Lagrange weights
    over a grid of centres with the working step, and by
    barycentric weights over S Chebyshev points in log scale between the
    smallest and largest scale: polynomial interpolation in log scale,
    whose error falls geometrically with S, and S is ``_MIN_SCALE_NODES``
    plus ``_SCALE_NODES_PER_LOG`` per unit of log-scale range. Each scale's
    centre histogram is convolved with g at that scale by FFT, and the
    products are summed before one inverse transform.

    Every row keeps its own working grid, centre grid and scale points.
    Rows whose working step and FFT length agree are transformed together
    and share one ``_refinement``, in blocks within ``_SPECTRUM_BLOCK``;
    the centre grids and scale points of shorter rows are padded with
    empty bins and points, which add exact zeros."""
    live = np.nonzero(np.any(binned, axis=-1))[0]
    binned, centres, scales, weights = binned[live], centres[live], scales[live], weights[live]
    step = (hi - lo) / (size - 1)
    low_s = np.min(scales, axis=-1, where=binned, initial=np.inf)
    grids = [_work_grid(f * m, step, size, _MIXTURE_STEPS_PER_FEATURE) for f, m in zip(feature_width[live], low_s)]
    grids = np.array(grids).reshape(-1, 2)
    step = step * grids[:, 0]
    # Centre grid: the working step, offset by whole steps so that the
    # d - centre lags are whole steps too.
    low_c = np.min(centres, axis=-1, where=binned, initial=np.inf)
    high_c = np.max(centres, axis=-1, where=binned, initial=-np.inf)
    below = np.maximum(0.0, np.ceil((lo - low_c) / step)).astype(np.intp) + 2
    origin = lo - below * step
    c_count = np.floor((high_c - origin) / step).astype(np.intp) + 4
    log_s = np.log(scales)
    low_log = np.min(log_s, axis=-1, where=binned, initial=np.inf)
    high_log = np.max(log_s, axis=-1, where=binned, initial=-np.inf)
    scale_nodes = _MIN_SCALE_NODES + np.ceil(_SCALE_NODES_PER_LOG * (high_log - low_log)).astype(np.intp)
    n_fft = [_fft_length(int(k + work) - 1) for k, work in zip(c_count, grids[:, 1])]
    # A unit outside its row's binned set sits at the row's lowest binned
    # centre and log scale with zero weight: inside both grids, adding zeros.
    centres = np.where(binned, centres, low_c[:, None])
    log_s = np.where(binned, log_s, low_log[:, None])
    weights = np.where(binned, weights, 0.0)

    keys = [(int(coarse), int(work), length) for (coarse, work), length in zip(grids, n_fft)]
    for (coarse, work, length), group in _groups(keys).items():
        refine = _refinement(coarse, work, size)
        point_size = int(length) + centres.shape[-1]
        per_block = max(1, _SPECTRUM_BLOCK // (int(scale_nodes[group].max()) * point_size))
        for first in range(0, group.shape[0], per_block):
            r = group[first : first + per_block]
            c_pos = (centres[r] - origin[r, None]) / step[r, None]
            c_first, c_w = _lagrange4(c_pos, c_count[r, None])
            log_nodes, s_w = _chebyshev_weights(log_s[r], scale_nodes[r])
            s_nodes = np.exp(log_nodes)
            nodes, bins = s_nodes.shape[1], int(c_count[r].max())
            index = ((np.arange(r.shape[0])[:, None] * nodes + np.arange(nodes)) * bins)[:, :, None] + c_first[:, None, :]
            mass = np.zeros(r.shape[0] * nodes * bins)
            for j in range(4):
                mass += np.bincount((index + j).ravel(), (s_w * (weights[r] * c_w[j])[:, None, :]).ravel(), minlength=mass.shape[0])
            mass = mass.reshape(r.shape[0], nodes, bins)
            kernels = np.zeros((r.shape[0], nodes, int(c_count[r].max() + work) - 1))
            for i, row in enumerate(r):
                count = scale_nodes[row] if high_log[row] > low_log[row] else 1
                lags = np.arange(below[row] - c_count[row] + 1, below[row] + work) * step[row]
                scaled = s_nodes[i, :count, None]
                table = live[row]
                kernels[i, :count, : lags.shape[0]] = np.interp(lags / scaled, table_x[table], table_y[table]) / scaled
            spectrum = np.sum(np.fft.rfft(mass, length) * np.fft.rfft(kernels, length), axis=-2)
            full = np.fft.irfft(spectrum, length)
            values = full[np.arange(r.shape[0])[:, None], (c_count[r] - 1)[:, None] + np.arange(work)]
            out[live[r]] += _refine(values, size, refine)


def gaussian_kde(
    samples: np.ndarray,
    bandwidth=None,
    sample_weight: np.ndarray | None = None,
) -> DensityEstimate:
    """Gaussian-kernel density estimate; Silverman's rule when ``bandwidth``
    is omitted. (..., n) stacks of samples or weights give one density, and
    one bandwidth, per row."""
    s = np.asarray(samples, dtype=float)
    if sample_weight is None:
        sample_weight = np.ones(s.shape)
    if s.ndim < 1 or s.shape[-1] < 2:
        raise FitError("kernel density estimation needs at least 2 samples along the last axis")
    if not np.all(np.isfinite(s)):
        raise FitError("non-finite sample passed to gaussian_kde")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(s, sample_weight)
    bw = np.asarray(bandwidth, dtype=float)
    if np.any(bw <= 0.0) or not np.all(np.isfinite(bw)):
        raise FitError(f"kernel density bandwidth must be positive, got {bandwidth}")
    return DensityEstimate(samples=s, bandwidth=bw, weights=sample_weight)
