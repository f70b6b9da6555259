"""Tick-by-tick reference clock for the simulator.

The production `run_simulation` jumps from one event tick to the next.  This
oracle is the earlier loop, kept verbatim: it visits every tick from 1 until
sensing has stopped and nothing is in flight, and tests every sensor's
period on every tick.  It reuses the pipeline stages (`sense`, `aggregate`,
`sink_transmit`, `fusion_receive`) and differs only in how the clock
advances, so a report mismatch points at the scheduler.  Its cost grows with
`duration_ticks`; keep the configs handed to it small.
"""

from typing import Dict, List, Tuple

from wsncrypt.sim import (
    SimConfig,
    SimReport,
    SinkStats,
    _flip_bit,
    aggregate,
    fusion_receive,
    relay,
    sense,
    sink_transmit,
)
from wsncrypt.topology import ROLE_HUB, ROLE_SENSOR, ROLE_SINK
from wsncrypt.wire import DecodeError, SensorReading, encode_frame


def ref_run_simulation(config: SimConfig) -> SimReport:
    topology = config.topology
    nodes = topology.node_map()
    hub_ids = set(topology.ids_with_role(ROLE_HUB))
    sensors = []  # (sensor, period, hub, kind), in sensor id order
    for sensor_id in sorted(topology.ids_with_role(ROLE_SENSOR)):
        period = nodes[sensor_id].sense_period_ticks or config.sense_period_ticks
        (hub_id,) = topology.neighbors(sensor_id) & hub_ids
        sensors.append((sensor_id, period, hub_id, nodes[sensor_id].kind))
    # ticks from a route's first node to its last; routes never change
    transit = {
        owner: relay(route, config.hop_latency_ticks)[-1][1]
        for owner, route in topology.routes.items()
    }
    corruption: Dict[int, List[int]] = {}
    for hook in config.corruption:
        corruption.setdefault(hook.frame_index, []).append(hook.bit_index)

    hub_inbox: Dict[int, List[SensorReading]] = {}
    # arrival tick -> list of in-flight items, kept in dispatch order
    to_sink: Dict[int, List[Tuple[int, bytes, Tuple[SensorReading, ...]]]] = {}
    to_fusion: Dict[int, List[Tuple[int, bytes, Tuple[SensorReading, ...]]]] = {}

    sequences: Dict[int, int] = {}
    frame_ordinal = 0

    report = SimReport(
        readings_sensed=0,
        frames_sent=0,
        frames_delivered=0,
        frames_rejected={},
        readings_recovered=0,
        fidelity_ok=True,
        per_sink={
            sink: SinkStats() for sink in sorted(topology.ids_with_role(ROLE_SINK))
        },
    )

    tick = 1
    while tick <= config.duration_ticks or to_sink or to_fusion:
        if tick <= config.duration_ticks:
            for sensor_id, period, hub_id, kind in sensors:
                if tick % period == 0:
                    reading = sense(sensor_id, kind, tick, config.seed)
                    hub_inbox.setdefault(hub_id, []).append(reading)
                    report.readings_sensed += 1

        for hub_id in sorted(hub_inbox):
            batch = hub_inbox[hub_id]
            payload = aggregate(batch)
            # sorted already: sensors fire in id order, the inbox holds one tick
            carried = tuple(batch)
            to_sink.setdefault(tick + transit[hub_id], []).append(
                (topology.routes[hub_id][-1], payload, carried)
            )
        hub_inbox.clear()

        for sink_id, payload, carried in sorted(
            to_sink.pop(tick, []), key=lambda item: item[0]
        ):
            sequence = sequences.get(sink_id, 0)
            sequences[sink_id] = sequence + 1
            frame = sink_transmit(
                sink_id, payload, sequence, config.sink_keys[sink_id]
            )
            encoded = encode_frame(frame)
            for bit in corruption.get(frame_ordinal, ()):
                if bit < 8 * len(encoded):
                    encoded = _flip_bit(encoded, bit)
            frame_ordinal += 1
            report.frames_sent += 1
            report.per_sink[sink_id].frames_sent += 1
            to_fusion.setdefault(tick + transit[sink_id], []).append(
                (sink_id, encoded, carried)
            )

        for origin_sink, encoded, carried in sorted(
            to_fusion.pop(tick, []), key=lambda item: item[0]
        ):
            report.frames_delivered += 1
            report.per_sink[origin_sink].frames_delivered += 1
            try:
                readings = fusion_receive(encoded, config.registry)
            except DecodeError as exc:
                kind = exc.kind
                report.frames_rejected[kind] = (
                    report.frames_rejected.get(kind, 0) + 1
                )
                report.per_sink[origin_sink].frames_rejected += 1
                report.fidelity_ok = False
            else:
                if tuple(readings) != carried:
                    report.fidelity_ok = False
                report.readings_recovered += len(readings)
                report.per_sink[origin_sink].readings_recovered += len(readings)

        tick += 1

    return report
