"""Time ``estimate_curve("MR")`` at n = 1k, 5k and 20k and report the growth
exponent in n.

    python3 perfbench/scaling.py

Each size draws one dataset from the study DGP at seed SEED, estimates the
MR curve with correct specifications on the default 50-point grid
(leave-one-out bandwidth) REPEATS times and keeps the median. The exponent between sizes n1 < n2
is log(t2 / t1) / log(n2 / n1); 1 is linear, 2 quadratic.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SIZES = (1_000, 5_000, 20_000)
REPEATS = 3
SEED = 1


def main() -> int:
    import dosedid as dd

    specs = dd.default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))
    medians = {}
    for n in SIZES:
        data = dd.generate_scenario_data(n, SEED)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            dd.estimate_curve(data, "MR", specs=specs)
            times.append(time.perf_counter() - start)
        medians[n] = statistics.median(times)
        print(f"n={n:6d}  n_t={data.n_treated:5d}  MR median {medians[n]:.4f} s  runs {[round(t, 4) for t in times]}")
    for lo, hi in zip(SIZES, SIZES[1:]):
        exponent = math.log(medians[hi] / medians[lo]) / math.log(hi / lo)
        print(f"growth exponent {lo}->{hi}: {exponent:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
