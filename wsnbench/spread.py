#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and spread.

    python3 wsnbench/spread.py --seeds 1-10 [--workloads sim-wide,attack-search]
                               [--commit abc1234 --note TEXT --out FILE]

Runs are sequential, one process each, with tracing off, interleaving
workloads within each seed.  Spread is the distance between the first and
third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median; an end-to-end metric whose spread exceeds its BENCHMARK.json bound
is flagged.
`--out` appends the medians and quartiles, with the Python version, `nproc`,
the given commit and note, as one point to a JSON list (the performance
trajectory, wsnbench/trajectory.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--commit")
    parser.add_argument("--note")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    values = {w: {} for w in names}
    walls = {w: [] for w in names}
    failures = 0
    for seed in parse_seeds(args.seeds):
        for workload in names:
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            walls[workload].append(time.perf_counter() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            failures += result["failed"]
            for metric, entry in result["metrics"].items():
                values[workload].setdefault(metric, []).append(entry["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in names:
        summary[workload] = {}
        if walls[workload]:
            print(f"{workload:<15} wall seconds per run: max {max(walls[workload]):.1f},"
                  f" total {sum(walls[workload]):.0f}")
        for metric, series in values[workload].items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][metric] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(series),
            }
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"{workload:<15} {metric:<28} median {median:<14.6g} "
                  f"q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f} {flag}")
    if args.out:
        point = {
            "commit": args.commit,
            "note": args.note,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seeds": args.seeds,
            "seconds": args.seconds,
            "workloads": summary,
        }
        trajectory = []
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as handle:
                trajectory = json.load(handle)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(trajectory + [point], handle, indent=2)
            handle.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
