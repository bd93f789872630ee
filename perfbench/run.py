"""Run one benchmark workload against the dosedid sources in ``src/``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run imports dosedid from the ``src/`` directory next to this one (and
fails if it is missing), sets up the workload's inputs from the seed
SETUP_REPEATS times, then repeats the workload's operation until S seconds
have passed. Every operation's output is checked; an operation fails when it
raises, when a check fails or when a check raises. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``op_s``         median wall seconds of one operation;
* ``setup_s``      the median time to import dosedid in a fresh interpreter
                   plus the median of the timed set-ups;
* ``peak_rss_mb``  peak resident set of this process.

With ``--trace 1`` they are the per-layer metrics of ``tracing.PER_LAYER``
plus ``trace.op_s`` and ``trace.overhead_pct``. One untimed operation first
measures peak allocations under tracemalloc; then operations alternate
untraced and traced, so the overhead compares the two within one run. The
spans are written to ``perfbench/work/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# The machine the benchmark is sized for has 2 cores; BLAS may use both.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))

from tracing import BENCH, Tracer  # noqa: E402  (imports dosedid only when a Tracer is built)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# Times ``import dosedid`` (numpy and PyYAML included) in a fresh interpreter.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import dosedid, dosedid.cli; print(time.perf_counter() - t)"
)


def _import_dosedid():
    """Import dosedid from SRC and time its import in fresh interpreters."""
    if not (SRC / "dosedid" / "__init__.py").is_file():
        raise SystemExit(f"dosedid sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import dosedid
    import dosedid.cli  # noqa: F401  (not re-exported by the package)

    if Path(dosedid.__file__).resolve().parent != SRC / "dosedid":
        raise SystemExit(f"imported dosedid from {dosedid.__file__}, not from {SRC}")
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)], capture_output=True, text=True, check=True, timeout=60
        )
        times.append(float(probe.stdout))
    return dosedid, statistics.median(times)


def _run_op(workload, index, log, tracer=None):
    """One operation, inside a root span when ``tracer`` is given, then its
    checks outside that span. Returns (seconds, failed, root span or None)."""
    root = tracer.open(f"{BENCH}.op", BENCH) if tracer else None
    start = time.perf_counter()
    try:
        output = workload.op(index)
        problems = None
    except Exception:
        problems = [f"raised:\n{traceback.format_exc()}"]
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    if problems is None:
        try:
            problems = workload.check(output)
        except Exception:
            problems = [f"check raised:\n{traceback.format_exc()}"]
    for p in problems:
        log(f"operation {index}: {p}")
    return elapsed, bool(problems), root


def main(argv=None) -> int:
    args = _parse(argv)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    dd, import_s = _import_dosedid()
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](dd, args.seed, workdir)

    def log(msg):
        print(f"[{args.workload} seed={args.seed}] {msg}", file=sys.stderr, flush=True)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    setup_times, setup_roots = [], []
    for _ in range(SETUP_REPEATS):
        root = tracer.open(f"{BENCH}.setup", BENCH) if tracer else None
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        if tracer:
            tracer.close(root)
            setup_roots.append(root)

    attempted = failed = 0
    op_times, traced_times, traced_roots = [], [], []
    if tracer:
        tracer.measure_memory = True
        _, bad, _ = _run_op(workload, attempted, log)
        tracer.measure_memory = False
        attempted += 1
        failed += bad
        tracer.uninstall()

    start = time.perf_counter()
    while (
        time.perf_counter() - start < args.seconds
        or len(op_times) < workload.min_ops
        or (tracer and not traced_times)
    ):
        traced = bool(tracer) and len(traced_times) < len(op_times)
        if traced:
            tracer.install()
        elapsed, bad, root = _run_op(workload, attempted, log, tracer if traced else None)
        if traced:
            tracer.uninstall()
            traced_roots.append(root)
            traced_times.append(elapsed)
        else:
            op_times.append(elapsed)
        attempted += 1
        failed += bad

    problems = workload.finish()
    for p in problems:
        log(p)

    if tracer:
        metrics = tracer.metrics(traced_roots, setup_roots, traced_times, op_times)
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "ops": len(traced_roots)})
        log(f"spans written to {trace_path}")
    else:
        metrics = {
            "op_s": {"value": statistics.median(op_times), "unit": "s"},
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    log(
        f"{attempted} operations, {failed} failed; op seconds {[round(t, 3) for t in op_times]}; "
        f"import {import_s:.3f} s, set-ups {[round(t, 3) for t in setup_times]}"
    )
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
