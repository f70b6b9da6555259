#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of wsncrypt.

    python3 wsnbench/run.py --workload sim-wide --seed 1 --seconds 10 --trace 0
    python3 wsnbench/run.py --workload all

Single process, single thread, stdlib only: each workload is a closed loop
with one caller driving the package in `src/` through its public API.  The
inputs come from `--seed` (see workloads.py); every output is checked against
an oracle, and the outputs of the pinned seeds in pins.json are checked
against their digests on every run.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json: `setup_s`
(median over fresh package imports, each followed by the workload's set-up
through the public API), `items_per_s` (median rate over windows of at
least WINDOW_S seconds of timed API calls), both at reference machine speed
(see REFERENCE_S), and `peak_rss_mb`.  `--trace 1` runs the workload's cycle
of cases untraced and then traced, in pairs, and prints the per-layer
metrics of BENCHMARK.json as measured.  The last stdout line is one JSON
object; a readable summary, with the raw times and the fail ratio, goes to
stderr.  Any failed check exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import tracing  # noqa: E402  (sibling module; this file runs as a script)
import workloads  # noqa: E402

SETUP_REPS = 7
WINDOW_S = 0.5
SELF_SUM_SLACK = 1 / 3
# On a shared virtual machine CPU speed drifts by up to 1.8x over tens of
# seconds, and the drift differs between interpreter-bound and
# bulk-bytes/file-I/O work.  So
# every time is also timed against a calibration loop of the workload's kind
# (`Workload.reference`), run on either side of it, and reported at reference
# speed: scaled by REFERENCE_S[kind] / the calibration loop's seconds.  The
# loops touch no package code, so they track the machine and not the program.
REFERENCE_S = {"interpreter": 0.03, "bulk": 0.016}
CALIBRATION_PROBES = 5
_BULK = random.Random(0).randbytes(1 << 20)
_PAIRS = [(random.Random(i).randrange(1 << 16), i) for i in range(1500)]


def _interpreter_loop():
    table, acc, recent = {}, 0, []
    for i in range(40_000):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 1023] = acc
        recent.append(table.get(i & 1023, 0) >> 3)
        if len(recent) > 64:
            recent.clear()
    for r in range(8):
        by_id = {a: (a, b, r) for a, b in _PAIRS}
        edges = {(min(a, b), max(a, b)) for a, b in _PAIRS}
        sorted(by_id, key=lambda k: by_id[k][1] + len(edges))


def _bulk_loop():
    path = os.path.join(OUT, f"calibrate-{os.getpid()}.bin")
    for key in (b"\x01", b"\x02\x03"):
        with open(path, "wb") as handle:
            handle.write(workloads.oracle_encrypt(_BULK, key))
        with open(path, "rb") as handle:
            handle.read()
    os.remove(path)


def calibrate(kind):
    """Mean seconds of CALIBRATION_PROBES calibration loops of `kind`, divided
    by its reference seconds: above 1 when the machine runs slower than the
    reference.  One short loop too often lands on a brief stall of the shared
    machine; the mean of several tracks the speed a whole window sees."""
    loop = _interpreter_loop if kind == "interpreter" else _bulk_loop
    start = time.perf_counter()
    for _ in range(CALIBRATION_PROBES):
        loop()
    seconds = (time.perf_counter() - start) / CALIBRATION_PROBES
    return seconds / REFERENCE_S[kind]


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def load_pins():
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        return json.load(handle)


def import_package():
    """Import wsncrypt afresh from this checkout's `src`, never an installed copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "wsncrypt" or m.startswith("wsncrypt.")]:
        del sys.modules[name]
    try:
        ws = importlib.import_module("wsncrypt")
        importlib.import_module("wsncrypt.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import wsncrypt from {SRC}: {exc}") from None
    if os.path.dirname(os.path.dirname(os.path.abspath(ws.__file__))) != SRC:
        raise BenchError(f"imported wsncrypt from {ws.__file__}, not from {SRC}")
    return ws


def set_up(workload):
    """Median of SETUP_REPS fresh imports, each followed by the workload's
    set-up; (package, raw seconds, seconds at reference speed)."""
    times, scaled = [], []
    for _ in range(SETUP_REPS):
        before = calibrate(workload.reference)
        start = time.perf_counter()
        ws = import_package()
        workload.prepare(ws)
        seconds = time.perf_counter() - start
        times.append(seconds)
        scaled.append(seconds * 2 / (before + calibrate(workload.reference)))
    return ws, statistics.median(times), statistics.median(scaled)


def run_cycle(workload, ws):
    """One pass over the cases: (api seconds, op seconds, items, outputs)."""
    start = time.perf_counter()
    workload.prepare(ws)
    api = time.perf_counter() - start
    op_seconds, items, outputs = 0.0, 0, []
    for case in workload.cases:
        seconds, n, output = workload.run(ws, case)
        op_seconds += seconds
        items += n
        outputs.append(output)
    return api + op_seconds, op_seconds, items, outputs


def check_pins(name, ws, workdir, pins):
    """Re-run each pinned seed's cases; returns (attempted, failed) digests."""
    failed = 0
    for seed, want in pins["digests"][name].items():
        pinned = workloads.WORKLOADS[name](int(seed), workdir)
        outputs = run_cycle(pinned, ws)[3]
        if workloads.digest(outputs) != want:
            print(f"pin mismatch: {name} seed {seed}", file=sys.stderr)
            failed += 1
    return len(pins["digests"][name]), failed


def measure(workload, ws, expected, seconds):
    """Closed loop over the cases until `seconds` pass.

    Returns the raw rate of each window of at least WINDOW_S seconds of
    timed calls, the same rates at reference speed (scaled by the
    calibration loop timed on either side of the window), and the counts.
    """
    rates, scaled, attempted, failed = [], [], 0, 0
    window_s, window_items = 0.0, 0
    before = calibrate(workload.reference)
    deadline = time.perf_counter() + seconds
    while True:
        for case, want in zip(workload.cases, expected):
            op_seconds, items, output = workload.run(ws, case)
            attempted += 1
            failed += output != want
            window_s += op_seconds
            window_items += items
        if window_s >= WINDOW_S:
            after = calibrate(workload.reference)
            rates.append(window_items / window_s)
            scaled.append(rates[-1] * (before + after) / 2)
            before, window_s, window_items = after, 0.0, 0
        if rates and time.perf_counter() >= deadline:
            return rates, scaled, attempted, failed


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, seed, seconds, workdir, pins):
    expected = [workload.expected(case) for case in workload.cases]
    calibrate(workload.reference)
    # The peak so far is the benchmark's own: inputs, oracles and calibration,
    # before the package is imported.  Printed so a run shows which side sets
    # peak_rss_mb.
    own_rss_mb = peak_rss_mb()
    ws, raw_setup_s, setup_s = set_up(workload)
    # The first cycle warms caches and is checked case by case.
    outputs = run_cycle(workload, ws)[3]
    attempted = len(outputs)
    failed = sum(o != e for o, e in zip(outputs, expected))
    pin_attempted, pin_failed = check_pins(workload.name, ws, workdir, pins)
    rates, scaled, loop_attempted, loop_failed = measure(workload, ws, expected, seconds)
    attempted += pin_attempted + loop_attempted
    failed += pin_failed + loop_failed
    metrics = {
        "setup_s": setup_s,
        "items_per_s": statistics.median(scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(
        f"{workload.name} seed {seed}: {workload.describe()}, "
        f"{len(rates)} windows of >= {WINDOW_S} s\n"
        f"  setup_s      {metrics['setup_s']:.6f} s"
        f" (raw {raw_setup_s:.6f} s)\n"
        f"  {workload.label:<12} {metrics['items_per_s'] * workload.scale:.6g}"
        f" {workload.unit} (raw {statistics.median(rates) * workload.scale:.6g})\n"
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB"
        f" (benchmark alone {own_rss_mb:.1f} MB)\n"
        f"  fail_ratio   {failed / attempted:g} ({failed} of {attempted} ops)",
        file=sys.stderr,
    )
    return metrics, attempted, failed


def layer_metric(name, stats, work):
    target, suffix = name.rsplit(".", 1)
    calls, self_s = stats[target]
    if suffix == "calls":
        return calls
    if suffix == "self_s":
        return self_s
    if suffix in ("bytes", "keys_tried"):
        return work[target]
    if suffix == "us_per_call":
        return self_s / calls * 1e6 if calls else 0.0
    if suffix == "MBps":
        return work[target] / self_s / 1e6 if self_s else 0.0
    raise BenchError(f"unknown per-layer metric {name}")


def per_layer(workload, seed, seconds, names):
    """Pairs of untraced and traced cycles until `seconds` pass.

    Counts come from the first traced cycle (they repeat exactly); times are
    medians over the pairs.  Traced outputs must equal untraced ones.
    """
    ws = import_package()
    tracer = tracing.Tracer(sorted({n.rsplit(".", 1)[0] for n in names} - {"trace"}))
    expected = [workload.expected(case) for case in workload.cases]
    run_cycle(workload, ws)  # warm-up
    pairs, first, attempted, failed = [], None, 0, 0
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        plain = run_cycle(workload, ws)
        tracer.reset()
        with tracing.install(tracer, ws):
            traced = run_cycle(workload, ws)
        stats = tracer.summary()
        attempted += 2 * len(expected)
        failed += sum(o != e for o, e in zip(plain[3], expected))
        failed += sum(t != p for t, p in zip(traced[3], plain[3]))
        # Self times add up to the root spans, which lie inside the timed API
        # calls, so their sum cannot exceed the traced API time.
        if sum(s for _, s in stats.values()) > traced[0] * (1 + 1e-9):
            print("sum of self times exceeds the traced API time", file=sys.stderr)
            failed += 1
        if first is None:
            first = (stats, dict(tracer.work), len(tracer.name))
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"trace-{workload.name}.tsv"))
        elif any(stats[t][0] != first[0][t][0] for t in stats):
            print("traced call counts differ between cycles", file=sys.stderr)
            failed += 1
        pairs.append((plain, traced, stats))
    first_stats, work, spans = first
    median_stats = {
        t: [first_stats[t][0], statistics.median(p[2][t][1] for p in pairs)]
        for t in first_stats
    }
    untraced_s = statistics.median(p[0][0] for p in pairs)
    traced_s = statistics.median(p[1][0] for p in pairs)
    self_sum_s = statistics.median(sum(s for _, s in p[2].values()) for p in pairs)
    # Tracing only adds time, so the self times should cover the untraced API
    # time, less the machine's drift between cycles; far less means spans are
    # missing.
    if self_sum_s < untraced_s * (1 - SELF_SUM_SLACK):
        print("sum of self times is far below the untraced API time", file=sys.stderr)
        failed += 1
    overall = {
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.self_sum_s": self_sum_s,
        "trace.overhead_ratio": statistics.median(p[1][0] / p[0][0] for p in pairs),
        "trace.items_per_s_untraced": statistics.median(p[0][2] / p[0][1] for p in pairs),
        "trace.items_per_s_traced": statistics.median(p[1][2] / p[1][1] for p in pairs),
        "trace.spans": spans,
    }
    metrics = {
        n: overall[n] if n in overall else layer_metric(n, median_stats, work)
        for n in names
    }
    print(
        f"{workload.name} seed {seed} traced: {len(pairs)} pairs of cycles, "
        f"{spans} spans per traced cycle\n"
        f"  {workload.label} untraced "
        f"{overall['trace.items_per_s_untraced'] * workload.scale:.6g} {workload.unit}, "
        f"traced {overall['trace.items_per_s_traced'] * workload.scale:.6g} {workload.unit}\n"
        f"  API time untraced {untraced_s:.4f} s, traced {traced_s:.4f} s, "
        f"sum of self times {self_sum_s:.4f} s\n"
        f"  outputs identical with tracing on and off, self times within the API"
        f" times: {'yes' if failed == 0 else 'NO'} ({failed} of {attempted} ops failed)",
        file=sys.stderr,
    )
    return metrics, attempted, failed


def run_all(args):
    """Every workload in turn, each in its own process so peak RSS is its own."""
    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec, pins = load_spec(), load_pins()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = pins["default_seed"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            metrics, attempted, failed = per_layer(workload, args.seed, args.seconds, names)
        else:
            names = [m["name"] for m in spec["end_to_end"]]
            metrics, attempted, failed = end_to_end(
                workload, args.seed, args.seconds, workdir, pins
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
