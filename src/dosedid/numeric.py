"""Self-contained numerical primitives.

Weighted least squares, IRLS logistic regression, Gaussian kernel density
estimation, binned kernel sums convolved by FFT, the Epanechnikov local
linear smoother, and leave-one-out bandwidth selection. Everything here is pure: no global state, safe to call
from parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "select_bandwidth",
    "gaussian_kde",
    "scale_mixture",
    "silverman_bandwidth",
    "PROB_CLIP",
]

# Fitted propensities are clipped into [PROB_CLIP, 1 - PROB_CLIP] before any
# odds ratio is formed, enforcing strict positivity numerically.
PROB_CLIP = 1e-6

_RIDGE_REL = 1e-8
_WLS_MAX_CHOLESKY_RETRIES = 3
# Binned kernel sums work on a grid coarser than their output by a power of
# two, with at least this many steps across the narrowest kernel feature.
_STEPS_PER_FEATURE = 16
# scale_mixture bins the units whose log scales lie in the densest window of
# this width, over this many Chebyshev points plus this many per unit of the
# window's occupied log-scale range; it sums the others directly, a block of
# at most this many unit x point elements at a time (docs/DECISIONS.md, D4).
_SCALE_WINDOW = 1.0
_MIN_SCALE_NODES = 8
_SCALE_NODES_PER_LOG = 12
_DIRECT_BLOCK = 16_384


def epanechnikov(u: np.ndarray) -> np.ndarray:
    """The Epanechnikov kernel 0.75 (1 - u^2), a symmetric density with
    support [-1, 1]."""
    u = np.asarray(u, dtype=float)
    out = 0.75 * (1.0 - u * u)
    return np.where(np.abs(u) <= 1.0, np.maximum(out, 0.0), 0.0)


@dataclass(frozen=True)
class LinearFit:
    """Weighted least-squares solution; the intercept, when present, is the
    first coefficient (callers put the 1s column first)."""

    coefficients: np.ndarray
    ridged: bool = False

    def predict(self, design: np.ndarray) -> np.ndarray:
        return np.asarray(design, dtype=float) @ self.coefficients


@dataclass(frozen=True)
class LogisticFit:
    """Maximum-likelihood logistic fit via IRLS."""

    coefficients: np.ndarray
    converged: bool
    iterations: int

    def predict_proba(self, design: np.ndarray) -> np.ndarray:
        p = expit(np.asarray(design, dtype=float) @ self.coefficients)
        return np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)


def expit(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _solve_normal_equations(xtwx: np.ndarray, xtwy: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve a PSD normal system by Cholesky, adding the documented ridge
    jitter 1e-8 * trace/q when the matrix is numerically singular."""
    q = xtwx.shape[0]
    mat = xtwx
    ridged = False
    for attempt in range(_WLS_MAX_CHOLESKY_RETRIES + 1):
        try:
            chol = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            jitter = _RIDGE_REL * (np.trace(xtwx) / q)
            if jitter <= 0.0 or not np.isfinite(jitter):
                raise FitError("normal matrix has nonpositive trace; design is degenerate")
            mat = mat + (jitter * 10.0**attempt) * np.eye(q)
            ridged = True
            continue
        beta = _cho_solve(chol, xtwy)
        return beta, ridged
    raise FitError("normal matrix remained singular after ridge jitter")


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    from numpy.linalg import solve

    # Two triangular solves; numpy lacks a dedicated triangular solver in its
    # public API so fall back to generic solve on the factors.
    y = solve(chol, rhs)
    return solve(chol.T, y)


def fit_wls(design: np.ndarray, response: np.ndarray, weights: np.ndarray) -> LinearFit:
    """Minimize sum_i w_i (y_i - x_i . beta)^2.

    Parameters
    ----------
    design : (n, q) array
    response : (n,) array
    weights : (n,) array of nonnegative weights, not all zero.

    Returns
    -------
    LinearFit
        ``ridged`` is set when a singular normal matrix required the
        1e-8 * trace/q jitter.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 2:
        raise FitError("design must be a 2-D matrix")
    n, q = x.shape
    if y.shape != (n,) or w.shape != (n,):
        raise FitError(f"dimension mismatch: design {x.shape}, response {y.shape}, weights {w.shape}")
    if q > n:
        raise FitError(f"more columns ({q}) than rows ({n})")
    if np.any(w < 0):
        raise FitError("weights must be nonnegative")
    if not np.any(w > 0):
        raise FitError("weights are all zero")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
        raise FitError("non-finite value in WLS inputs")

    wx = x * w[:, None]
    xtwx = x.T @ wx
    xtwy = wx.T @ y
    beta, ridged = _solve_normal_equations(xtwx, xtwy)
    return LinearFit(coefficients=beta, ridged=ridged)


def fit_logistic(
    design: np.ndarray,
    labels: np.ndarray,
    sample_weight: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> LogisticFit:
    """IRLS maximum-likelihood logistic regression.

    Convergence is declared when the largest coefficient change drops below
    ``tol``; otherwise the fit stops at ``max_iter`` with ``converged=False``
    (the separable-data case). Predictions are always clipped into
    [PROB_CLIP, 1 - PROB_CLIP].
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
    pos = float(np.sum(w * y))
    tot = float(np.sum(w))
    if pos <= 0.0 or pos >= tot:
        raise FitError("both label classes must be present (with positive weight)")
    if q > n:
        raise FitError(f"more columns ({q}) than rows ({n})")

    beta = np.zeros(q)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        p = expit(x @ beta)
        p = np.clip(p, 1e-10, 1.0 - 1e-10)
        irls_w = w * p * (1.0 - p)
        score = x.T @ (w * (y - p))
        hess = x.T @ (x * irls_w[:, None])
        step, _ = _solve_normal_equations(hess, score)
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            converged = True
            break
    return LogisticFit(coefficients=beta, converged=converged, iterations=it)


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
    if h <= 0 or not np.isfinite(h):
        raise BandwidthError(f"bandwidth must be positive, got {h}", delta=delta)
    u = (x - delta) / h
    k = epanechnikov(u)
    inside = k > 0.0
    if int(np.count_nonzero(inside)) < 2:
        raise _window_error(delta, h, tied=False)
    if np.min(x[inside]) == np.max(x[inside]):
        raise _window_error(delta, h, tied=True)
    w = k if sample_weight is None else k * np.asarray(sample_weight, dtype=float)
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
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, sample_weight: np.ndarray | None = None):
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        w = np.ones(x.shape[0]) if sample_weight is None else np.asarray(sample_weight, dtype=float)
        if x.ndim != 1 or y.shape != x.shape or w.shape != x.shape:
            raise FitError(f"dimension mismatch: xs {x.shape}, ys {y.shape}, weights {w.shape}")
        # One non-finite value would spread to every later prefix sum.
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
            raise FitError("non-finite value in local linear inputs")
        if np.any(w < 0):
            raise FitError("weights must be nonnegative")
        self._literal = (x, y, sample_weight)
        order = np.argsort(x, kind="stable")
        self._xo, self._yo, self._wo = xo, yo, wo = x[order], y[order], w[order]
        self._centre = float(np.mean(xo))
        self._xc = xc = xo - self._centre  # centring bounds the power sums
        self._pref = [np.concatenate([[0.0], np.cumsum(wo * xc**k)]) for k in range(5)]
        self._qref = [np.concatenate([[0.0], np.cumsum(wo * yo * xc**k)]) for k in range(4)]

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
        m = [p[stop] - p[first] for p in self._pref]
        q = [p[stop] - p[first] for p in self._qref]
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
        targets = np.asarray(targets, dtype=float)
        s0, s1, s2, t0, t1, first, stop = self.moments(targets, h)
        last = self._xo.shape[0] - 1
        bad = (stop - first < 2) | (self._xo[np.minimum(first, last)] == self._xo[np.maximum(stop - 1, 0)])
        if np.any(bad):
            k = int(np.argmax(bad))
            raise _window_error(float(targets[k]), h, tied=bool(stop[k] - first[k] >= 2))
        x, y, sample_weight = self._literal
        return _solve_local_linear(
            s0, s1, s2, t0, t1, lambda k: local_linear_fit(x, y, h, float(targets[k]), sample_weight)
        )


def _solve_local_linear(s0, s1, s2, t0, t1, fallback):
    """Solve [[s0, s1], [s1, s2]] (a, b) = (t0, t1) per window, or call
    ``fallback(index)`` where the determinant vanishes relative to s0 * s2.
    Windows whose points are all tied never get here."""
    den = s0 * s2 - s1 * s1
    good = np.abs(den) > 1e-12 * np.abs(s0 * s2) + 1e-300
    safe = np.where(good, den, 1.0)
    intercept = (s2 * t0 - s1 * t1) / safe
    slope = (s0 * t1 - s1 * t0) / safe
    for i in np.nonzero(~good)[0]:
        intercept[i], slope[i] = fallback(i)
    return intercept, slope


def default_bandwidth_grid(xs: np.ndarray, size: int = 20) -> np.ndarray:
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
    return np.geomspace(0.5 * scale, 4.0 * scale, size)


def _loo_zero_tolerance(ys: np.ndarray, weights: np.ndarray) -> float:
    # Scores below (1e-10 * max|y|)^2 * sum(w) are rounding junk from an
    # interpolating fit; treating them as exact zeros makes the smallest-h
    # tie rule deterministic in the noiseless regime.
    scale = float(np.max(np.abs(ys))) if ys.size else 0.0
    return (1e-10 * scale) ** 2 * float(np.sum(weights))


def select_bandwidth(
    xs: np.ndarray,
    ys: np.ndarray,
    grid: np.ndarray | None = None,
    sample_weight: np.ndarray | None = None,
) -> float:
    """Pick the candidate bandwidth minimizing leave-one-out squared error.

    For each candidate h the exact leave-one-out local linear prediction is
    computed at every point; candidates for which any leave-one-out fit is
    infeasible (fewer than two remaining in-window points) are skipped.
    Scores below the interpolation tolerance (see ``_loo_zero_tolerance``)
    count as exact zeros, and ties go to the smaller bandwidth.

    Raises
    ------
    BandwidthError
        If every candidate fails.
    """
    if grid is None:
        grid = default_bandwidth_grid(xs)
    cand = np.unique(np.asarray(grid, dtype=float))
    if cand.size == 0:
        raise BandwidthError("empty bandwidth grid")

    window = WindowedMoments(xs, ys, sample_weight)
    zero_tol = _loo_zero_tolerance(window._yo, window._wo)
    best_h = None
    best_score = np.inf
    for h in cand:
        score = _loo_score(window, float(h))
        if score is None:
            continue
        if score < zero_tol:
            score = 0.0
        if score < best_score:
            best_score = score
            best_h = float(h)
    if best_h is None:
        raise BandwidthError("no feasible bandwidth candidate (all leave-one-out fits failed)")
    return best_h


def _loo_score(window: WindowedMoments, h: float) -> float | None:
    """Exact weighted LOO score for one candidate, or None if infeasible."""
    xo, yo, wo = window._xo, window._yo, window._wo
    s0, s1, s2, t0, t1, first, stop = window.moments(xo, h)
    # Each LOO fit needs two in-window points besides the held-out one, and
    # is not identified when those are all tied.
    if np.any(stop - first < 3):
        return None
    pos = np.arange(xo.shape[0])
    if np.any(xo[first + (pos == first)] == xo[stop - 1 - (pos == stop - 1)]):
        return None

    def literal(i):
        keep = pos != i
        return local_linear_fit(xo[keep], yo[keep], h, float(xo[i]), sample_weight=wo[keep])

    # Dropping point i only touches the zeroth-order sums (u_i = 0 there).
    try:
        pred, _ = _solve_local_linear(s0 - 0.75 * wo, s1, s2, t0 - 0.75 * wo * yo, t1, literal)
    except BandwidthError:
        return None
    resid = yo - pred
    return float(np.sum(wo * resid * resid))


def silverman_bandwidth(samples: np.ndarray, sample_weight: np.ndarray | None = None) -> float:
    """Silverman's rule of thumb, 1.06 * sigma * n^(-1/5).

    Sigma is the ddof-1 sample deviation; with weights, its frequency-weight
    analog (identical arithmetic when the weights are all ones, so weighted
    and unweighted calls agree bitwise on unit weights).
    """
    s = np.asarray(samples, dtype=float)
    n = s.shape[0]
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    wsum = np.sum(w)
    mu = np.sum(w * s) / wsum
    denom = wsum - np.sum(w * w) / wsum
    if denom <= 0.0:
        raise FitError("cannot form a bandwidth from fewer than 2 effective samples")
    sigma = float(np.sqrt(np.sum(w * (s - mu) ** 2) / denom))
    return 1.06 * sigma * n ** (-0.2)


@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian kernel density over a fixed sample.

    Evaluates to a nonnegative density integrating to one (up to quadrature
    tolerance) over any range padded by a few bandwidths beyond the samples.
    """

    samples: np.ndarray
    bandwidth: float
    weights: np.ndarray = field(default=None)  # normalized to sum 1

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.weights is None:
            w = np.full(self.samples.shape[0], 1.0 / self.samples.shape[0])
        else:
            w = np.asarray(self.weights, dtype=float)
            w = w / np.sum(w)
        object.__setattr__(self, "weights", w)

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

    def on_grid(self, lo: float, hi: float, size: int) -> np.ndarray:
        """The density at ``np.linspace(lo, hi, size)`` by binning.

        Each weighted sample is spread over its four neighbouring points of
        a working grid by 4-point Lagrange weights, the masses are convolved
        with the Gaussian by one FFT, and the result is carried to the
        output points by 4-point Lagrange interpolation: O(n + size log
        size) in place of ``__call__``'s n x size kernel sums (the binned
        estimator of Silverman 1982, AS 176, and Hall & Wand 1996, with
        weights that reproduce cubics, so the error is fourth order in the
        working step; see ``_work_grid``). Samples must lie in [lo, hi].
        """
        step = (hi - lo) / (size - 1)
        coarse, work = _work_grid(self.bandwidth, step, size)
        step *= coarse
        first, lag_w = _lagrange4((self.samples - lo) / step, work)
        mass = np.bincount(
            (first + np.arange(4)[:, None]).ravel(), (lag_w * self.weights).ravel(), minlength=work
        )
        z = np.arange(1 - work, work) * (step / self.bandwidth)
        kernel = np.exp(-0.5 * z * z) / (self.bandwidth * np.sqrt(2.0 * np.pi))
        return np.maximum(_refine(_convolve_valid(mass, kernel, work), coarse, size), 0.0)


def _fft_length(n: int) -> int:
    """The power of two at or above ``n``, an FFT length."""
    return 1 << max(0, (n - 1).bit_length())


def _convolve_valid(signal: np.ndarray, kernel: np.ndarray, size: int) -> np.ndarray:
    """``out[j] = sum_m signal[m] * kernel[j - m + len(signal) - 1]`` for
    ``j < size``, by one FFT product. ``kernel`` holds the lags from
    ``1 - len(signal)`` to ``size - 1``, so no output wraps around."""
    n = _fft_length(kernel.shape[0])
    full = np.fft.irfft(np.fft.rfft(signal, n) * np.fft.rfft(kernel, n), n)
    return full[signal.shape[0] - 1 : signal.shape[0] - 1 + size]


def _work_grid(feature_width: float, step: float, size: int) -> tuple[int, int]:
    """``(coarse, work)``: the working grid of a binned kernel sum whose
    ``size`` output points lie ``step`` apart. Its step is ``coarse`` output
    steps, the largest power of two leaving ``_STEPS_PER_FEATURE`` steps
    across ``feature_width`` (4-point Lagrange binning and interpolation
    then err by a few 1e-8 of the peak), and it has ``work`` >= 4 points
    from the first output point to at or past the last."""
    coarse = 1
    while feature_width >= 2 * coarse * step * _STEPS_PER_FEATURE and 2 * coarse <= (size - 1) // 3:
        coarse *= 2
    return coarse, -(-(size - 1) // coarse) + 1


def _refine(values: np.ndarray, coarse: int, size: int) -> np.ndarray:
    """Values on a working grid ``coarse`` output steps apart, carried to
    the ``size`` output points by 4-point Lagrange interpolation."""
    if coarse == 1:
        return values[:size]
    first, weights = _lagrange4(np.arange(size) / coarse, values.shape[0])
    return np.sum(weights * values[first + np.arange(4)[:, None]], axis=0)


def _lagrange4(pos: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First index and (4, n) weights of 4-point Lagrange interpolation at
    fractional positions ``pos`` on the points 0 .. count - 1 (count >= 4).
    Each position uses the four points around it, shifted inward at the
    ends; the weights sum to one and reproduce cubics exactly."""
    first = np.clip(np.floor(pos).astype(np.intp) - 1, 0, count - 4)
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


def _chebyshev_weights(x: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` Chebyshev points of the second kind over [min x, max x] and
    the (count, n) barycentric weights that interpolate a function of x
    from its values there. A constant x needs one point."""
    lo, hi = float(x.min()), float(x.max())
    if not hi > lo:
        return np.array([lo]), np.ones((1, x.shape[0]))
    k = np.arange(count)
    cheb = np.cos(np.pi * k / (count - 1))
    bary = (-1.0) ** k
    bary[[0, -1]] *= 0.5
    diff = (2.0 * x - lo - hi) / (hi - lo) - cheb[:, None]
    on_node = diff == 0.0
    ratio = bary[:, None] / np.where(on_node, 1.0, diff)
    weights = ratio / np.sum(ratio, axis=0)
    hit = np.any(on_node, axis=0)
    weights[:, hit] = on_node[:, hit]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * cheb, weights


def scale_mixture(
    table_x: np.ndarray,
    table_y: np.ndarray,
    centres: np.ndarray,
    scales: np.ndarray,
    weights: np.ndarray,
    lo: float,
    hi: float,
    size: int,
    feature_width: float,
) -> np.ndarray:
    """``sum_i weights_i * g((d - centres_i) / scales_i) / scales_i`` at
    ``d = np.linspace(lo, hi, size)``, for g the piecewise-linear function
    through ``(table_x, table_y)``, whose narrowest feature is
    ``feature_width`` wide (a kernel bandwidth).

    Units whose kernel support misses [lo, hi] add nothing and are dropped.
    The units whose log scale lies in the densest window of width
    ``_SCALE_WINDOW`` are binned (``_binned_mixture``): O(n + S size log
    size) in place of n x size kernel evaluations. The rest, scale outliers
    such as a variance fit near its floor, are summed directly at the
    output points, so no outlier widens the binned scale range or narrows
    its working grid.
    """
    reach_lo = lo - centres > scales * table_x[-1]
    reach_hi = hi - centres < scales * table_x[0]
    keep = ~(reach_lo | reach_hi)
    centres, scales, weights = centres[keep], scales[keep], weights[keep]
    out = np.zeros(size)
    if centres.size == 0:
        return out
    log_s = np.log(scales)
    ordered = np.sort(log_s)
    reach = np.searchsorted(ordered, ordered + _SCALE_WINDOW, side="right") - np.arange(ordered.shape[0])
    start = ordered[int(np.argmax(reach))]
    binned = (log_s >= start) & (log_s <= start + _SCALE_WINDOW)
    out += _binned_mixture(
        table_x, table_y, centres[binned], scales[binned], weights[binned], lo, hi, size, feature_width
    )
    d = np.linspace(lo, hi, size)
    rows = max(1, _DIRECT_BLOCK // size)
    rest = np.nonzero(~binned)[0]
    for first in range(0, rest.shape[0], rows):
        unit = rest[first : first + rows]
        dens = np.interp((d[None, :] - centres[unit, None]) / scales[unit, None], table_x, table_y)
        out += weights[unit] @ (dens / scales[unit, None])
    return out


def _binned_mixture(table_x, table_y, centres, scales, weights, lo, hi, size, feature_width) -> np.ndarray:
    """``scale_mixture`` by binning. The sum is formed on a working grid
    (``_work_grid``, for the narrowest scaled feature) and carried to the
    output points by ``_refine``. Each unit's weight is spread by 4-point
    Lagrange weights over a grid of centres with the working step, and by
    barycentric weights over S Chebyshev points in log scale between the
    smallest and largest scale: polynomial interpolation in log scale,
    whose error falls geometrically with S, and S is ``_MIN_SCALE_NODES``
    plus ``_SCALE_NODES_PER_LOG`` per unit of log-scale range. Each scale's
    centre histogram is convolved with g at that scale by FFT, and the
    products are summed before one inverse transform."""
    step = (hi - lo) / (size - 1)
    coarse, work_size = _work_grid(feature_width * float(scales.min()), step, size)
    step *= coarse

    # Centre grid: the working step, offset by whole steps so that the
    # d - centre lags are whole steps too.
    below = int(max(0.0, np.ceil((lo - centres.min()) / step))) + 2
    origin = lo - below * step
    c_pos = (centres - origin) / step
    c_count = int(np.floor(c_pos.max())) + 4
    c_first, c_w = _lagrange4(c_pos, c_count)

    log_s = np.log(scales)
    scale_nodes = _MIN_SCALE_NODES + int(np.ceil(_SCALE_NODES_PER_LOG * float(np.ptp(log_s))))
    log_nodes, s_w = _chebyshev_weights(log_s, scale_nodes)
    s_nodes = np.exp(log_nodes)
    count = s_nodes.shape[0]
    rows = (np.arange(count) * c_count)[:, None] + c_first
    mass = np.zeros(count * c_count)
    for j in range(4):
        mass += np.bincount((rows + j).ravel(), (s_w * (weights * c_w[j])).ravel(), minlength=count * c_count)
    mass = mass.reshape(count, c_count)

    lags = np.arange(below - c_count + 1, below + work_size) * step
    kernels = np.interp(lags / s_nodes[:, None], table_x, table_y) / s_nodes[:, None]
    n = _fft_length(lags.shape[0])
    spectrum = np.sum(np.fft.rfft(mass, n) * np.fft.rfft(kernels, n), axis=0)
    return _refine(np.fft.irfft(spectrum, n)[c_count - 1 : c_count - 1 + work_size], coarse, size)


def gaussian_kde(
    samples: np.ndarray,
    bandwidth: float | None = None,
    sample_weight: np.ndarray | None = None,
) -> DensityEstimate:
    """Gaussian-kernel density estimate; Silverman's rule when ``bandwidth``
    is omitted."""
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.shape[0] < 2:
        raise FitError("kernel density estimation needs at least 2 one-dimensional samples")
    if not np.all(np.isfinite(s)):
        raise FitError("non-finite sample passed to gaussian_kde")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(s, sample_weight)
    if bandwidth <= 0.0 or not np.isfinite(bandwidth):
        raise FitError(f"kernel density bandwidth must be positive, got {bandwidth}")
    return DensityEstimate(samples=s, bandwidth=float(bandwidth), weights=sample_weight)
