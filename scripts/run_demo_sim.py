#!/usr/bin/env python3
"""Build the demo telemetry network in code, run it, and print the report.

Same network as configs/demo.json (two sensors, one hub, one relay, one
sink, one fusion center), constructed through the library API instead of
JSON.  A second run injects a single bit flip into the first frame to show
the rejection accounting.  Exits 1, naming each problem on stderr, unless the
clean run recovers every reading it sensed with no rejection and the
corrupted run rejects exactly one frame for its checksum.
"""

import dataclasses
import json
import sys
from typing import List

from wsncrypt.sim import (
    FrameCorruption,
    SimConfig,
    SimReport,
    report_to_dict,
    run_simulation,
)
from wsncrypt.topology import NodeSpec, Topology
from wsncrypt.wire import ReadingKind


def build_config() -> SimConfig:
    topology = Topology(
        nodes=(
            NodeSpec(1, "sensor", ReadingKind.SCALAR),
            NodeSpec(2, "sensor", ReadingKind.AUDIO),
            NodeSpec(10, "hub"),
            NodeSpec(20, "relay"),
            NodeSpec(30, "sink"),
            NodeSpec(99, "fusion_center"),
        ),
        edges=((1, 10), (2, 10), (10, 30), (30, 20), (20, 99)),
        routes={10: (10, 30), 30: (30, 20, 99)},
    )
    keys = {30: bytes.fromhex("5a5a5a5a5a5a5a5a")}
    return SimConfig(
        topology=topology,
        sink_keys=keys,
        registry=dict(keys),
        seed=1,
        duration_ticks=100,
        sense_period_ticks=10,
        hop_latency_ticks=1,
    )


def problems(clean: SimReport, corrupted: SimReport) -> List[str]:
    """What is wrong with the two reports; empty when both are as expected."""
    found = []
    if not clean.fidelity_ok:
        found.append("clean run: fidelity_ok is false")
    if clean.frames_rejected:
        found.append(f"clean run: frames rejected {clean.frames_rejected}")
    if clean.readings_recovered != clean.readings_sensed:
        found.append(
            f"clean run: recovered {clean.readings_recovered} of"
            f" {clean.readings_sensed} readings sensed"
        )
    if corrupted.frames_rejected != {"checksum_mismatch": 1}:
        found.append(
            "corrupted run: frames rejected"
            f" {corrupted.frames_rejected}, not one checksum_mismatch"
        )
    return found


def main() -> int:
    config = build_config()
    clean = run_simulation(config)
    print("clean run:")
    print(json.dumps(report_to_dict(clean), indent=2))

    corrupted = run_simulation(dataclasses.replace(
        config, corruption=(FrameCorruption(frame_index=0, bit_index=100),)
    ))
    print("\nwith one bit flipped in frame 0:")
    print(json.dumps(report_to_dict(corrupted), indent=2))

    found = problems(clean, corrupted)
    for problem in found:
        print(f"run_demo_sim: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
