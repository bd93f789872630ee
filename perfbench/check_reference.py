"""Check the closed-form reference curve against two Monte-Carlo versions.

    python3 perfbench/check_reference.py

1. A draw of 2M covariate vectors weighted exactly by p(X) (no dosedid
   code): the closed form must lie within 4 standard errors of the draw's
   weighted mean at every grid point.
2. ``dosedid.simulation.ground_truth_curve`` at 1M units, seeds 0-2: it
   samples treatment by a Bernoulli draw, so its psi_true carries the
   Monte-Carlo error of a mean over ~0.48M treated units; the closed form
   must lie within 4 of those standard errors at every grid point.

Prints the largest differences and exits 1 if either check fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402

Z = 4.0
SUPER_N = 1_000_000


def main() -> int:
    ok = True
    grid = np.linspace(0.0, 6.0, 50)
    est, se = reference.weighted_draw(grid, 2_000_000, seed=0)
    z = np.abs(reference.psi(grid) - est) / se
    print(f"weighted draw (2M): max |diff| {np.max(np.abs(reference.psi(grid) - est)):.5f}, max z {z.max():.2f}")
    ok &= bool(z.max() <= Z)

    from dosedid.simulation import ground_truth_curve

    # sd of tau(X, delta) given A=1 is |TAU_X + delta TAU_XD| (X given A=1
    # is close to N(m, I): the propensity slopes are small).
    n_treated = SUPER_N * reference.treated_share()
    for seed in range(3):
        truth = ground_truth_curve(seed, SUPER_N, 50)
        sd = np.linalg.norm(reference.TAU_X[None, :] + np.outer(truth.grid, reference.TAU_XD), axis=1)
        diff = np.abs(reference.psi(truth.grid) - truth.psi_true)
        z = diff / (sd / np.sqrt(n_treated))
        print(f"ground_truth_curve seed {seed}: max |diff| {diff.max():.4f}, max z {z.max():.2f}")
        ok &= bool(z.max() <= Z)
    print("reference checks", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
