"""Run one workload over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py WORKLOAD [--seeds 1 2 3 ...]

Runs ``perfbench/run.py`` untraced once per seed for BENCHMARK.json's
``run_seconds``, one run at a time, and prints for every end-to-end metric
the median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the quartile distance as a share of the median, next to a third
of the metric's bound. The last line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {result['failed']}/{result['attempted']} failed {line}", flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": seconds, "metrics": {}}
    summary["failed_share"] = [r["failed"] / r["attempted"] for r in runs]
    summary["correct"] = all(r["correct"] for r in runs)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": share, "bound": bound}
        limit = "" if bound is None else f"  (bound/3 {bound / 3:.4f})"
        print(f"{name:40s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  iqr/median {share:.4f}{limit}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
