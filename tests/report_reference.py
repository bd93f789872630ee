"""The study report one (permutation, method) cell at a time.

``simulation._method_reports`` forms every ``MethodReport`` of a study in
one pass of masked reductions over the (replicate, permutation, method)
stack of the replicates' records (docs/DECISIONS.md, D23). ``method_report``
is the per-cell form it reduces: it gathers one cell's successful
replicates (and, for each band method, those whose band formed) into
contiguous arrays and reduces them with ``np.mean`` and ``np.std``, so
tests can hold the masked reduction to it bitwise.
"""

from __future__ import annotations

import numpy as np

from dosedid.errors import EstimationError
from dosedid.simulation import MethodReport


def _integrate(weights, values):
    return float(np.sum(weights * values))


def method_report(truth, key, method: str, ci_methods, job) -> MethodReport:
    """One method's report under one permutation, from its job's (R, ...)
    slice of the replicates' stack (a ``simulation._Jobs``)."""
    ok = ~np.isnan(job.psi[:, 0])
    if not np.any(ok):
        raise EstimationError(f"every replicate failed for {method} under {key!r}")
    weights, psi_true, psis = truth.density_weights, truth.psi_true, job.psi[ok]
    n_fail = int(job.psi.shape[0] - ok.sum())
    coverage, width, band_failures = {}, {}, {}
    for c, ci_method in enumerate(ci_methods if method == "MR" else ()):
        band_failures[ci_method] = int(job.band_failed[:, c].sum())
        formed = ok & ~job.band_failed[:, c]
        if np.any(formed):
            lo, hi = job.bands[formed, c, 0], job.bands[formed, c, 1]
            coverage[ci_method] = 100.0 * _integrate(weights, np.mean((lo <= psi_true) & (psi_true <= hi), axis=0))
            width[ci_method] = _integrate(weights, np.mean(hi - lo, axis=0))
    selected = job.edges[~np.isnan(job.edges[:, 0])]
    at_edge, extended = (float(share) for share in selected.mean(axis=0)) if selected.size else (None, None)
    return MethodReport(
        method=method,
        misspecified=key,
        integrated_abs_bias=_integrate(weights, np.abs(psis.mean(axis=0) - psi_true)),
        integrated_rmse=_integrate(weights, np.sqrt(np.mean((psis - psi_true[None, :]) ** 2, axis=0))),
        integrated_sd=_integrate(weights, psis.std(axis=0, ddof=1) if psis.shape[0] > 1 else np.zeros(psis.shape[1])),
        failures=n_fail,
        flagged=n_fail > 0.1 * job.psi.shape[0],
        coverage=coverage,
        mean_width=width,
        bandwidth_at_grid_edge=at_edge,
        bandwidth_extended=extended,
        inference_failures=band_failures,
    )
