#!/usr/bin/env python3
"""Simulator scale ladder: six generated networks from 77 to 60,301 nodes.

    python scripts/sim_scale.py

Each rung is a network of the benchmark's generator
(`wsnbench/workloads.py`'s `network_doc`, imported read-only) run for 8
ticks.  In hubs x sensors per hub the rungs are 8x8, 32x32, 128x32, 128x32
again, 512x32 and 200x300, which is 77, 1,073, 4,289, 4,289, 17,153 and
60,301 nodes; the last is near the u16 id cap of 65,535.  Every rung runs
at period 1 except the second 128x32 one (printed `p1,2`), whose sensors
alternate periods 1 and 2: on every even tick two cohorts of each hub group
fire, so the hubs' merged-tick sort runs at scale.  Each rung runs in a
fresh process, so the peak RSS printed for it is its own.

Per rung the script prints the node count, the milliseconds that
`json.loads` takes to parse the network's JSON text, the median
milliseconds of 5 (BUILDS) `config_from_dict` calls in the rung's process,
each building (and validating) the config from that document, the median
readings/s of the runs made in at least one second with their count and
the lowest and highest rate, and the peak RSS.  It checks every run's
report against `workloads.expected_report`.  The readings/s column comes
from one fresh process per rung, and its medians have ordered two trees
both ways on the same networks; it cannot tell which of two trees is
faster, while alternating in-process pairs can (ROADMAP item 20).

It also writes the rung's network to a file, runs `python -m wsncrypt
simulate --config FILE` on it in 3 sequential processes and prints their
median wall time as `CLI` ms.  That includes interpreter start-up, ~43 ms
for `python -c pass` (2-vCPU VM, CPython 3.11.7).  Each process's stdout
must be the in-process report as `simulate` prints it.  The script exits 1
on any mismatch.
"""

import json
import multiprocessing
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "wsnbench")
)
import workloads  # noqa: E402

from wsncrypt.sim import config_from_dict, report_to_dict, run_simulation  # noqa: E402

# (hubs, sensors per hub, the periods the sensors cycle through or None for 1)
RUNGS = (
    (8, 8, None), (32, 32, None), (128, 32, None), (128, 32, (1, 2)),
    (512, 32, None), (200, 300, None),
)
TICKS = 8
MIN_SECONDS = 1.0
CLI_RUNS = 3
BUILDS = 5


def label(hubs, sensors, periods):
    name = f"{hubs}x{sensors}"
    return name if periods is None else f"{name}p{','.join(map(str, periods))}"


def measure(hubs, sensors, periods, path):
    """(nodes, JSON-load ms, median build ms, readings/s of each run, peak
    RSS MB, every report right, the report as `simulate` prints it); writes
    the network's JSON text to `path`."""
    text = json.dumps(workloads.network_doc(
        random.Random(f"sim-scale:{label(hubs, sensors, periods)}"),
        hubs, sensors, TICKS, periods,
    ))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    start = time.perf_counter()
    doc = json.loads(text)
    load_ms = 1e3 * (time.perf_counter() - start)
    builds = []
    for _ in range(BUILDS):
        config = None  # one config alive at a time: the peak RSS is one build's
        start = time.perf_counter()
        config = config_from_dict(doc)
        builds.append(1e3 * (time.perf_counter() - start))
    build_ms = statistics.median(builds)
    expected = workloads.expected_report(doc)
    rates, spent, correct = [], 0.0, True
    while spent < MIN_SECONDS:
        start = time.perf_counter()
        report = run_simulation(config)
        seconds = time.perf_counter() - start
        spent += seconds
        rates.append(report.readings_sensed / seconds)
        correct = correct and report_to_dict(report) == expected
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    printed = json.dumps(report_to_dict(report), indent=2) + "\n"
    return (
        len(doc["nodes"]), load_ms, build_ms, rates, peak_mb, correct, printed,
    )


def cli_runs(path, printed):
    """(median wall ms of CLI_RUNS sequential `simulate` processes, every
    stdout equal to `printed`)."""
    command = [sys.executable, "-m", "wsncrypt", "simulate", "--config", path]
    walls, same = [], True
    for _ in range(CLI_RUNS):
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True)
        walls.append(1e3 * (time.perf_counter() - start))
        same = same and done.returncode == 0 and done.stdout == printed
    return statistics.median(walls), same


def main():
    failed = False
    # one rung per worker process, one process at a time
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool, \
            tempfile.TemporaryDirectory() as scratch:
        for hubs, sensors, periods in RUNGS:
            name = label(hubs, sensors, periods)
            path = os.path.join(scratch, f"{name}.json")
            nodes, load_ms, build_ms, rates, peak_mb, correct, printed = pool.apply(
                measure, (hubs, sensors, periods, path)
            )
            cli_ms, same = cli_runs(path, printed)
            status = (
                "REPORT MISMATCH" if not correct else "CLI MISMATCH" if not same else "ok"
            )
            print(
                f"{name:<10} {nodes:>6,} nodes  JSON load {load_ms:6.1f} ms"
                f"  build {build_ms:7.1f} ms  {statistics.median(rates):>9,.0f}"
                f" readings/s ({len(rates)} runs, {min(rates):,.0f}-{max(rates):,.0f})"
                f"  peak RSS {peak_mb:6.1f} MB"
                f"  CLI {cli_ms:7.1f} ms  {status}",
                flush=True,
            )
            failed = failed or status != "ok"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
