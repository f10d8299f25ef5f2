"""Measure how steady the benchmark is, and record the baseline.

    python3 perfbench/steadiness.py [--out FILE]

For each workload, runs run.py --trace 0 once per seed 1..10, each run
lasting BENCHMARK.json's run_seconds, and reports,
per end-to-end metric, the median, the quartiles and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median.  It then makes two --trace 1 runs with the same
seed, checks that every deterministic count agrees between them, and
reports the tracing overhead.  With --out, the results and the machine
description are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "threads": "BLAS pinned to 1 (OMP/OPENBLAS/MKL_NUM_THREADS=1); "
                   "ACSTAB_THREADS unset, so the CLI pool has min(nproc, tasks) threads",
    }


def main() -> int:
    from layertrace import COUNT_METRICS
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        results = [run(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        entry = {
            "correct": all(r["correct"] for r in results),
            "failed_per_attempted": [[r["failed"], r["attempted"]] for r in results],
            "metrics": {m: summarize([r["metrics"][m]["value"] for r in results]) for m in bounds},
        }
        traced = [run(name, 1, seconds, 1)["metrics"] for _ in range(2)]
        entry["counts_repeat"] = all(
            traced[0][c]["value"] == traced[1][c]["value"] for c in COUNT_METRICS)
        entry["trace_overhead_ratio"] = [t["bench.trace_overhead_ratio"]["value"] for t in traced]
        entry["traced_counts"] = {c: traced[0][c]["value"] for c in COUNT_METRICS}
        report["workloads"][name] = entry
        print(f"{name}: correct={entry['correct']} counts_repeat={entry['counts_repeat']} "
              f"trace_overhead={entry['trace_overhead_ratio']}")
        for metric, s in entry["metrics"].items():
            flag = "" if s["spread"] <= bounds[metric] / 3 else "  <-- above a third of its bound"
            print(f"  {metric:12s} median {s['median']:.6g}  spread {s['spread']:.4f}  "
                  f"(bound {bounds[metric]}){flag}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
