#!/usr/bin/env python3
"""Simulator scale ladder: five generated networks from 77 to 60,301 nodes.

    python scripts/sim_scale.py

Each rung is a network of the benchmark's generator
(`wsnbench/workloads.py`'s `network_doc`, imported read-only) run for 8
ticks at period 1.  In hubs x sensors per hub the rungs are 8x8, 32x32,
128x32, 512x32 and 200x300, which is 77, 1,073, 4,289, 17,153 and 60,301
nodes; the last is near the u16 id cap of 65,535.  Each rung runs in a
fresh process, so the peak RSS printed for it is its own.

Per rung the script prints the node count, the milliseconds that
`json.loads` takes to parse the network's JSON text and that
`config_from_dict` then takes to build (and validate) the config from it,
the median readings/s of the runs made in at least one second, and the
peak RSS.  It checks every run's report against `workloads.expected_report`
and exits 1 on any mismatch.
"""

import json
import multiprocessing
import os
import random
import resource
import statistics
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "wsnbench")
)
import workloads  # noqa: E402

from wsncrypt.sim import config_from_dict, report_to_dict, run_simulation  # noqa: E402

RUNGS = ((8, 8), (32, 32), (128, 32), (512, 32), (200, 300))
TICKS = 8
MIN_SECONDS = 1.0


def measure(hubs, sensors):
    """(nodes, JSON-load ms, build ms, median readings/s, peak RSS MB, every
    report right)."""
    text = json.dumps(workloads.network_doc(
        random.Random(f"sim-scale:{hubs}x{sensors}"), hubs, sensors, TICKS, None
    ))
    start = time.perf_counter()
    doc = json.loads(text)
    load_ms = 1e3 * (time.perf_counter() - start)
    start = time.perf_counter()
    config = config_from_dict(doc)
    build_ms = 1e3 * (time.perf_counter() - start)
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
    return (
        len(doc["nodes"]), load_ms, build_ms, statistics.median(rates), peak_mb, correct
    )


def main():
    failed = False
    # one rung per worker process, one process at a time
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for hubs, sensors in RUNGS:
            nodes, load_ms, build_ms, rate, peak_mb, correct = pool.apply(
                measure, (hubs, sensors)
            )
            print(
                f"{hubs:>3}x{sensors:<3} {nodes:>6,} nodes  JSON load {load_ms:6.1f} ms"
                f"  build {build_ms:7.1f} ms"
                f"  {rate:>9,.0f} readings/s  peak RSS {peak_mb:6.1f} MB"
                f"  {'ok' if correct else 'REPORT MISMATCH'}",
                flush=True,
            )
            failed = failed or not correct
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
