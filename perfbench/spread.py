"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1..10] [--trace 0|1] [--out FILE]

For each workload and metric it prints the median of the per-run values,
their quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  A
bound is met with margin when the spread is below a third of it.
``--out`` also writes these figures and every run's value, with the
machine they were measured on, as JSON.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seeds", default="1..10", help="LO..HI inclusive")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    lo, hi = (int(part) for part in args.seeds.split(".."))
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    summary = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "cpu": cpu_model(), "seeds": args.seeds, "run_seconds": declared["run_seconds"],
               "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(lo, hi + 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(declared["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            runs.append(result["metrics"])
        table = {}
        for metric in metrics:
            values = [run[metric["name"]]["value"] for run in runs]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            table[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                     "unit": metric["unit"], "values": values}
            bound = metric.get("bound")
            note = "" if bound is None else f" bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'})"
            print(f"{workload:<14} {metric['name']:<40} median {median:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}{note}", flush=True)
        summary["workloads"][workload] = table
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
