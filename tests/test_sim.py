import copy
import dataclasses
import hashlib
import io
import itertools
import json
import os
import runpy
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
import sim_reference
from sim_reference import ref_run_simulation

from wsncrypt import cli, sim
from wsncrypt.cipher import encrypt, encryptor
from wsncrypt.sim import (
    VALUE_LENGTHS,
    DecodeAfterDecryptError,
    FrameCorruption,
    InvalidConfigError,
    UnknownSinkError,
    _cohort_sensor,
    aggregate,
    config_from_dict,
    fusion_receive,
    load_config,
    relay,
    SimConfig,
    report_to_dict,
    run_simulation,
    sense,
    sink_transmit,
)
from wsncrypt.topology import ROLE_SENSOR, NodeSpec, Topology, validate_topology
from wsncrypt.wire import (
    COUNT_LEN,
    HEADER_LEN,
    MAX_PAYLOAD,
    RECORD_HEADER_LEN,
    BadMagicError,
    ChecksumMismatchError,
    DecodeError,
    ReadingKind,
    SensorReading,
    decode_readings,
    encode_frame,
    encode_readings,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIG_PATH = ROOT / "configs" / "demo.json"


def chain_topology():
    """sensor 1 -- hub 10 -- sink 30 -- fusion 99"""
    return Topology(
        nodes=(
            NodeSpec(1, "sensor", ReadingKind.SCALAR),
            NodeSpec(10, "hub"),
            NodeSpec(30, "sink"),
            NodeSpec(99, "fusion_center"),
        ),
        edges=((1, 10), (10, 30), (30, 99)),
        routes={10: (10, 30), 30: (30, 99)},
    )


def demo_dict():
    with open(CONFIG_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- topology validation --------------------------------------------------------


def test_chain_topology_is_valid():
    assert validate_topology(chain_topology()) == []


def test_missing_fusion_center():
    topo = Topology(
        nodes=(
            NodeSpec(1, "sensor", ReadingKind.SCALAR),
            NodeSpec(10, "hub"),
            NodeSpec(30, "sink"),
        ),
        edges=((1, 10), (10, 30)),
        routes={10: (10, 30), 30: (30, 30)},
    )
    assert any("missing fusion center" in p for p in validate_topology(topo))


@pytest.mark.parametrize(
    "change, problem",
    [
        ({"edges": ((1, 10), (30, 99))}, "uses missing edge (10, 30)"),
        ({"routes": {10: (10, 55, 30), 30: (30, 99)}}, "visits unknown node 55"),
        ({"routes": {10: (10,), 30: (30, 99)}}, "has fewer than 2 nodes"),
    ],
    ids=["missing-edge", "unknown-node", "no-hops"],
)
def test_route_with_missing_edge_is_named(change, problem):
    problems = validate_topology(dataclasses.replace(chain_topology(), **change))
    assert f"route of hub 10 {problem}" in problems


def test_sensor_needs_exactly_one_hub():
    topo = dataclasses.replace(chain_topology(), edges=((10, 30), (30, 99)))
    assert any("sensor 1 is adjacent to 0 hubs" in p
               for p in validate_topology(topo))


def test_violations_accumulate():
    topo = Topology(nodes=(NodeSpec(1, "sensor"),), edges=((1, 2),), routes={})
    problems = validate_topology(topo)
    assert len(problems) >= 3  # no kind, unknown edge node, no fusion center


def test_unknown_role_flagged():
    topo = dataclasses.replace(
        chain_topology(),
        nodes=chain_topology().nodes + (NodeSpec(50, "router"),),
    )
    assert any("unknown role" in p for p in validate_topology(topo))


def test_problems_are_listed_section_by_section():
    # one broken rule per section: node, edge, fusion, sensor-hub, route
    # owner, hub route and sink route
    topo = Topology(
        nodes=(
            NodeSpec(1, "sensor", ReadingKind.SCALAR),
            NodeSpec(10, "hub"),
            NodeSpec(30, "sink"),
            NodeSpec(40, "relay", sense_period_ticks=3),
        ),
        edges=((1, 40), (10, 30), (10, 77)),
        routes={40: (40, 30), 30: (30, 40), 10: (10, 40)},
    )
    assert validate_topology(topo) == [
        "non-sensor 40 carries a sense period",
        "edge (10, 77) references unknown node 77",
        "missing fusion center",
        "sensor 1 is adjacent to 0 hubs, expected exactly 1",
        "route configured for non-hub/sink 40",
        "route of hub 10 ends at 40, not a sink",
        "route of hub 10 uses missing edge (10, 40)",
        "route of sink 30 uses missing edge (30, 40)",
    ]


def test_one_node_listed_twice_is_a_duplicate_id():
    node = NodeSpec(20, "relay")
    topo = Topology(nodes=(node, node), edges=(), routes={})
    assert validate_topology(topo) == ["duplicate node id 20", "missing fusion center"]


def test_fusion_center_listed_twice_is_one_problem():
    node = NodeSpec(99, "fusion_center")
    topo = Topology(nodes=(node, node), edges=(), routes={})
    assert validate_topology(topo) == ["duplicate node id 99"]


def test_sensor_listed_twice_is_checked_against_its_hubs_once():
    sensor = NodeSpec(1, "sensor", ReadingKind.SCALAR)
    topo = Topology(
        nodes=(sensor, NodeSpec(10, "hub"), sensor, NodeSpec(11, "hub"),
               NodeSpec(30, "sink"), NodeSpec(99, "fusion_center")),
        edges=((1, 10), (1, 11), (10, 30), (11, 30), (30, 99)),
        routes={10: (10, 30), 11: (11, 30), 30: (30, 99)},
    )
    assert validate_topology(topo) == [
        "duplicate node id 1",
        "sensor 1 is adjacent to 2 hubs, expected exactly 1",
    ]
    assert topo.ids_with_role("sensor") == (1,)


def test_topology_lookups_are_read_only_views():
    topo = chain_topology()
    with pytest.raises(TypeError):
        topo.node_map()[5] = NodeSpec(5, "relay")
    with pytest.raises(AttributeError):
        topo.neighbors(10).add(99)
    with pytest.raises(AttributeError):
        topo.edge_set().add((1, 99))
    assert topo.node_map() == {n.id: n for n in topo.nodes}
    assert topo.edge_set() == {(1, 10), (10, 30), (30, 99)}
    assert topo.neighbors(10) == {1, 30}
    assert topo.neighbors(12345) == set()
    assert topo.has_edge(30, 10) and not topo.has_edge(1, 99)
    assert list(topo.ids_with_role("sensor")) == [1]
    assert list(topo.ids_with_role("relay")) == []


def test_hub_sensors_are_in_id_order_by_hub_in_node_order():
    # a hub with no sensor is kept; a relay or sink neighbour is left out
    scalar, audio = ReadingKind.SCALAR, ReadingKind.AUDIO
    topo = Topology(
        nodes=(NodeSpec(20, "hub"), NodeSpec(7, "sensor", scalar),
               NodeSpec(10, "hub"), NodeSpec(5, "sensor", audio),
               NodeSpec(3, "sensor", scalar), NodeSpec(30, "sink"),
               NodeSpec(40, "relay"), NodeSpec(12, "hub")),
        edges=((20, 7), (10, 5), (3, 10), (10, 40), (20, 30), (10, 30), (12, 30)),
        routes={},
    )
    sensors = topo.hub_sensors()
    assert list(sensors) == [20, 10, 12]
    assert [[node.id for node in sensors[hub]] for hub in sensors] == [[7], [3, 5], []]
    assert sensors[10][1] == NodeSpec(5, "sensor", audio)
    with pytest.raises(TypeError):
        sensors[20] = ()


# -- sense ------------------------------------------------------------------------


def test_sense_is_deterministic():
    assert sense(1, ReadingKind.SCALAR, 10, 42) == sense(1, ReadingKind.SCALAR, 10, 42)


def test_sense_varies_with_inputs():
    base = sense(1, ReadingKind.SCALAR, 10, 42)
    assert sense(1, ReadingKind.SCALAR, 11, 42) != base
    assert sense(1, ReadingKind.SCALAR, 10, 43) != base
    assert sense(2, ReadingKind.SCALAR, 10, 42) != base


def test_sense_value_lengths():
    assert len(sense(1, ReadingKind.SCALAR, 1, 0).value) == 2
    assert len(sense(2, ReadingKind.AUDIO, 1, 0).value) == 16
    assert len(sense(3, ReadingKind.VIDEO, 1, 0).value) == 32
    assert VALUE_LENGTHS[ReadingKind.SCALAR] == 2


def test_sense_values_rarely_repeat():
    values = {sense(1, ReadingKind.SCALAR, tick, 7).value for tick in range(1, 1001)}
    assert len(values) >= 990


# run_simulation builds cohorts of up to _GROUP_SENSORS sensors, more for a
# hub that has more on its own
@given(
    st.lists(st.tuples(st.integers(0, 0xFFFF), st.sampled_from(list(ReadingKind))),
             min_size=1, max_size=sim._GROUP_SENSORS + 2),
    st.integers(1, 0xFFFFFFFF),
    st.integers(0, (1 << 64) - 1),
)
@example(
    [(0xFFFF - i, list(ReadingKind)[i % len(ReadingKind)])
     for i in range(sim._GROUP_SENSORS + 2)],
    0xFFFFFFFF, (1 << 64) - 1,
)
def test_cohort_sensing_equals_sense(cohort, tick, seed):
    parts = _cohort_sensor(cohort, seed)(tick)
    records = [
        encode_readings([sense(n, k, tick, seed)])[COUNT_LEN:] for n, k in cohort
    ]
    assert len(parts) == 2 * len(records)
    # each sensor's record header, then its value
    for header, value, record in zip(parts[::2], parts[1::2], records):
        assert (len(header), header + value) == (RECORD_HEADER_LEN, record)


# -- aggregate ----------------------------------------------------------------------


def test_aggregate_empty_batch():
    assert aggregate([]) == b"\x00\x00"


def test_aggregate_orders_by_node_then_timestamp():
    r_late = sense(1, ReadingKind.SCALAR, 20, 0)
    r_early = sense(1, ReadingKind.SCALAR, 10, 0)
    r_other = sense(2, ReadingKind.SCALAR, 10, 0)
    encoded = aggregate([r_other, r_late, r_early])
    assert decode_readings(encoded) == [r_early, r_late, r_other]


# -- sink_transmit / relay ------------------------------------------------------------


def test_sink_transmit_encrypts_payload():
    payload = encode_readings(
        [SensorReading(node_id=1, timestamp=9, kind=ReadingKind.SCALAR,
                       value=b"ab")]
    )
    frame = sink_transmit(30, payload, 5, b"Z" * 8)
    assert frame.sink_id == 30
    assert frame.sequence == 5
    assert frame.payload == encrypt(payload, b"Z" * 8)


def test_sink_transmit_empty_payload():
    assert sink_transmit(30, b"", 0, b"Z").payload == b""


def test_relay_schedule_arithmetic():
    schedule = relay((30, 20, 21, 99), 2)
    assert schedule == [(20, 2), (21, 4), (99, 6)]  # 3 hops, latency 2


# -- fusion_receive --------------------------------------------------------------------


def end_to_end_frame(key=b"Z" * 8, seed=1):
    # demo.json's sensors 1 (scalar) and 2 (audio) on hub 10, sink 30
    readings = [sense(1, ReadingKind.SCALAR, 10, seed),
                sense(2, ReadingKind.AUDIO, 10, seed)]
    payload = aggregate(readings)
    frame = sink_transmit(30, payload, 0, key)
    return encode_frame(frame), sorted(readings)


def test_fusion_receive_round_trip():
    encoded, readings = end_to_end_frame()
    assert sorted(fusion_receive(encoded, {30: b"Z" * 8})) == readings


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_fusion_receive_takes_any_bytes_like_frame(wrap):
    encoded, readings = end_to_end_frame()
    assert sorted(fusion_receive(wrap(encoded), {30: wrap(b"Z" * 8)})) == readings
    flipped = bytearray(encoded)
    flipped[-2] ^= 1
    with pytest.raises(ChecksumMismatchError):
        fusion_receive(wrap(flipped), {30: b"Z" * 8})


def test_fusion_receive_unknown_sink():
    encoded, _ = end_to_end_frame()
    with pytest.raises(UnknownSinkError) as err:
        fusion_receive(encoded, {31: b"Z" * 8})
    assert isinstance(err.value, DecodeError)  # one base for every rejection


def test_fusion_receive_wrong_key_fails_parse():
    # concrete mis-registration: sink encrypts with 'Z'*8, registry says 'A'*8
    encoded, readings = end_to_end_frame(key=b"Z" * 8)
    with pytest.raises(DecodeAfterDecryptError) as err:
        fusion_receive(encoded, {30: b"A" * 8})
    assert isinstance(err.value, DecodeError)


def test_fusion_receive_propagates_decode_errors():
    encoded, _ = end_to_end_frame()
    mangled = b"\x00\x00" + encoded[2:]
    with pytest.raises(BadMagicError):
        fusion_receive(mangled, {30: b"Z" * 8})


@st.composite
def received_frames(draw):
    """Noise, or a frame from a known or an unknown sink sealed under the
    registered key or another, perhaps with one byte overwritten."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=80))
    batch = draw(st.lists(st.builds(
        SensorReading,
        node_id=st.integers(0, 0xFFFF),
        timestamp=st.integers(0, 0xFFFFFFFF),
        kind=st.sampled_from(ReadingKind),
        value=st.binary(max_size=40),
    ), max_size=4))
    frame = sink_transmit(
        draw(st.sampled_from([30, 31])),
        encode_readings(batch),
        draw(st.integers(0, 0xFFFFFFFF)),
        draw(st.just(b"Z" * 8) | st.binary(min_size=1, max_size=32)),
    )
    encoded = bytearray(encode_frame(frame))
    if draw(st.booleans()):
        encoded[draw(st.integers(0, len(encoded) - 1))] = draw(st.integers(0, 255))
    return bytes(encoded)


@given(received_frames(), st.sampled_from([bytes, bytearray, memoryview]))
def test_fusion_receive_raises_only_decode_errors(data, wrap):
    try:
        fusion_receive(wrap(data), {30: b"Z" * 8})
    except DecodeError:
        pass


def test_key_isolation():
    # another sink's key never reproduces the original readings
    encoded, readings = end_to_end_frame(key=b"Z" * 8)
    other_key = b"\x11\x22\x33\x44\x55\x66\x77\x88"
    try:
        recovered = fusion_receive(encoded, {30: other_key})
    except DecodeAfterDecryptError:
        return
    assert sorted(recovered) != readings


# -- run_simulation ----------------------------------------------------------------------


def test_demo_config_counts():
    report = run_simulation(load_config(str(CONFIG_PATH)))
    assert report.readings_sensed == 20
    assert report.readings_recovered == 20
    assert report.frames_sent == 10  # both sensors fire together, one batch per tick
    assert report.frames_delivered == 10
    assert report.frames_rejected == {}
    assert report.fidelity_ok
    assert report.per_sink[30].frames_sent == 10
    assert report.per_sink[30].readings_recovered == 20


def test_run_is_deterministic():
    config = load_config(str(CONFIG_PATH))
    first = run_simulation(config)
    second = run_simulation(config)
    assert first == second
    assert json.dumps(report_to_dict(first)) == json.dumps(report_to_dict(second))


def test_short_duration_yields_empty_report():
    doc = demo_dict()
    doc["duration_ticks"] = 5  # shorter than the sense period: nothing fires
    report = run_simulation(config_from_dict(doc))
    assert report.readings_sensed == 0
    assert report.frames_sent == 0
    assert report.readings_recovered == 0
    assert report.fidelity_ok  # vacuously


def test_corruption_hook_counts_rejection():
    doc = demo_dict()
    doc["corruption"] = [{"frame": 0, "bit": 100}]  # payload bit of frame 0
    report = run_simulation(config_from_dict(doc))
    assert report.frames_sent == 10
    assert report.frames_delivered == 10
    assert report.frames_rejected == {"checksum_mismatch": 1}
    assert report.readings_recovered == 18
    assert not report.fidelity_ok
    assert report.per_sink[30].frames_rejected == 1


def test_unregistered_sink_counts_rejections():
    doc = demo_dict()
    doc["fusion_registry"] = {}
    report = run_simulation(config_from_dict(doc))
    assert report.frames_rejected == {"unknown_sink": 10}
    assert report.readings_recovered == 0
    assert not report.fidelity_ok


def test_misregistered_key_counts_rejections():
    doc = demo_dict()
    doc["fusion_registry"] = {"30": "4141414141414141"}
    report = run_simulation(config_from_dict(doc))
    assert report.frames_rejected == {"decode_after_decrypt": 10}
    assert not report.fidelity_ok


def test_per_sensor_period_override():
    doc = demo_dict()
    doc["nodes"][0]["sense_period_ticks"] = 5  # sensor 1 fires twice as often
    report = run_simulation(config_from_dict(doc))
    assert report.readings_sensed == 30
    assert report.readings_recovered == 30
    assert report.fidelity_ok


# -- event clock: idle ticks cost nothing -------------------------------------------


def test_longest_run_fires_each_sensor_twice():
    doc = demo_dict()
    doc["duration_ticks"] = 0xFFFFFFFF
    for node in doc["nodes"][:2]:
        node["sense_period_ticks"] = 0x7FFFFFFF  # fires at 2**31 - 1 and 2**32 - 2
    report = run_simulation(config_from_dict(doc))
    assert report_to_dict(report) == {
        "readings_sensed": 4,
        "frames_sent": 2,
        "frames_delivered": 2,
        "frames_rejected": {},
        "readings_recovered": 4,
        "fidelity_ok": True,
        "per_sink": {"30": {"frames_sent": 2, "frames_delivered": 2,
                            "frames_rejected": 0, "readings_recovered": 4}},
    }


def test_periods_beyond_duration_give_empty_report():
    doc = demo_dict()
    doc["duration_ticks"] = 0xFFFFFFFE
    doc["sense_period_ticks"] = 0xFFFFFFFF
    doc["nodes"][1]["sense_period_ticks"] = 0xFFFFFFFF
    report = run_simulation(config_from_dict(doc))
    assert report_to_dict(report) == {
        "readings_sensed": 0,
        "frames_sent": 0,
        "frames_delivered": 0,
        "frames_rejected": {},
        "readings_recovered": 0,
        "fidelity_ok": True,
        "per_sink": {"30": {"frames_sent": 0, "frames_delivered": 0,
                            "frames_rejected": 0, "readings_recovered": 0}},
    }


@st.composite
def small_networks(draw):
    """Up to 2 sinks, 0-2 relays on each sink's route and 0-1 on each hub's,
    1-3 sensors per hub with periods that may exceed the run, corruption
    hooks, and registry entries that match, are missing or differ.  Hook
    bits stay below the longest frame any hub can send, which validation
    requires; a frame shorter than that may still end before the bit."""
    fusion = 99
    duration = draw(st.integers(1, 40))
    nodes = [NodeSpec(fusion, "fusion_center")]
    edges, routes, keys, registry = [], {}, {}, {}
    next_id = iter(range(100, 200))
    sensor_ids = iter(range(1, 100))
    largest_batch = 0

    def path_to(start, end, relays):
        path = [start] + [next(next_id) for _ in range(relays)] + [end]
        nodes.extend(NodeSpec(relay, "relay") for relay in path[1:-1])
        edges.extend(zip(path, path[1:]))
        return tuple(path)

    for _ in range(draw(st.integers(1, 2))):
        sink = next(next_id)
        nodes.append(NodeSpec(sink, "sink"))
        routes[sink] = path_to(sink, fusion, draw(st.integers(0, 2)))
        keys[sink] = draw(st.binary(min_size=1, max_size=8))
        entry = draw(st.sampled_from(["same", "missing", "other"]))
        if entry == "same":
            registry[sink] = keys[sink]
        elif entry == "other":
            registry[sink] = bytes([keys[sink][0] ^ 1]) + keys[sink][1:]
        for _ in range(draw(st.integers(1, 2))):
            hub = next(next_id)
            nodes.append(NodeSpec(hub, "hub"))
            routes[hub] = path_to(hub, sink, draw(st.integers(0, 1)))
            batch = 2
            for _ in range(draw(st.integers(1, 3))):
                sensor = next(sensor_ids)
                kind = draw(st.sampled_from(list(ReadingKind)))
                nodes.append(NodeSpec(
                    sensor,
                    "sensor",
                    kind,
                    draw(st.none() | st.integers(1, duration + 5)),
                ))
                edges.append((sensor, hub))
                batch += 8 + VALUE_LENGTHS[kind]
            largest_batch = max(largest_batch, batch)
    frame_bits = 8 * (HEADER_LEN + largest_batch + 1)
    corruption = tuple(
        FrameCorruption(frame, bit)
        for frame, bit in draw(st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, frame_bits - 1)),
            max_size=3,
        ))
    )
    return SimConfig(
        topology=Topology(nodes=tuple(nodes), edges=tuple(edges), routes=routes),
        sink_keys=keys,
        registry=registry,
        seed=draw(st.integers(0, (1 << 64) - 1)),
        duration_ticks=duration,
        sense_period_ticks=draw(st.integers(1, 8)),
        hop_latency_ticks=draw(st.integers(1, 3)),
        corruption=corruption,
    )


def report_and_frames(run, module, config):
    """`run(config)`'s report as JSON, and every frame it encodes in
    transmit order; `run` looks `encode_frame` up in `module`."""
    frames = []
    encode = module.encode_frame

    def recording(frame):
        frames.append(encode(frame))
        return frames[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "encode_frame", recording)
        report = run(config)
    return json.dumps(report_to_dict(report)), frames


def assert_matches_reference(config):
    # frames too: two batches that swap sequence numbers keep every count
    assert report_and_frames(run_simulation, sim, config) == report_and_frames(
        ref_run_simulation, sim_reference, config
    )


@settings(deadline=None)
@given(small_networks())
def test_event_clock_matches_tick_by_tick_reference(config):
    assert_matches_reference(config)


@settings(deadline=None)
@given(small_networks())
def test_report_totals_are_the_sums_over_sinks(config):
    report = run_simulation(config)
    sinks = report.per_sink.values()
    event(f"frames rejected: {bool(report.frames_rejected)}")
    assert report.frames_sent == sum(s.frames_sent for s in sinks)
    assert report.readings_recovered == sum(s.readings_recovered for s in sinks)
    rejected = sum(report.frames_rejected.values())
    assert rejected == sum(s.frames_rejected for s in sinks)
    # every frame sent is delivered, and rejected after it is delivered
    assert report.frames_delivered == report.frames_sent >= rejected
    for stats in sinks:
        assert stats.frames_delivered == stats.frames_sent >= stats.frames_rejected


def grouped_config(hubs):
    """Hubs 50001, 50002, ... behind sink 60000 and fusion center 60001, one
    list of sensor periods per hub; sensor ids count from 1 across the hubs
    and kinds cycle.  12 ticks, hop latency 1, bit 60 of frame 5 flipped."""
    kinds = itertools.cycle(ReadingKind)
    sensor_ids = itertools.count(1)
    nodes = [NodeSpec(60000, "sink"), NodeSpec(60001, "fusion_center")]
    edges, routes = [(60000, 60001)], {60000: (60000, 60001)}
    for hub, periods in enumerate(hubs, start=50001):
        nodes.append(NodeSpec(hub, "hub"))
        edges.append((hub, 60000))
        routes[hub] = (hub, 60000)
        for period in periods:
            sensor = next(sensor_ids)
            nodes.append(NodeSpec(sensor, "sensor", next(kinds), period))
            edges.append((sensor, hub))
    keys = {60000: b"\x5a\x0f\xc3"}
    return SimConfig(
        topology=Topology(nodes=tuple(nodes), edges=tuple(edges), routes=routes),
        sink_keys=keys,
        registry=dict(keys),
        seed=11,
        duration_ticks=12,
        sense_period_ticks=1,
        hop_latency_ticks=1,
        corruption=(FrameCorruption(frame_index=5, bit_index=60),),
    )


LIMIT = sim._GROUP_SENSORS


# (hubs' sensor periods, cohorts built): one cohort per group and period
@pytest.mark.parametrize("hubs, cohorts", [
    # sizes L/2, L/2 | L/2 | L/2 + 1, 3: three groups, of 2, 4 and 2 periods
    ([[1, 2] * (LIMIT // 4)] * 3 + [[3] * (LIMIT // 2 + 1), [2, 5, 7]], 8),
    # the middle hub holds L + 2 sensors, so each hub is a group alone
    ([[2, 3], [1, 4] * (LIMIT // 2 + 1), [3]], 5),
    # one group; the middle hub's periods 2 and 3 meet on ticks 6 and 12,
    # and the last hub's period-2 sensor joins their period-2 cohort
    ([[5], [2, 3, 2, 3], [2, 6]], 4),
], ids=["several-groups", "hub-above-limit", "coinciding-periods"])
def test_hub_groups_match_reference(hubs, cohorts):
    config = grouped_config(hubs)
    built = []

    def counting(sensors, seed):
        built.append(len(sensors))
        return _cohort_sensor(sensors, seed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_cohort_sensor", counting)
        run_simulation(config)
    assert (len(built), sum(built)) == (cohorts, sum(map(len, hubs)))
    assert_matches_reference(config)


@settings(deadline=None, max_examples=50)
@given(small_networks(), st.integers(1, 6))
def test_any_group_limit_matches_reference(config, limit):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_GROUP_SENSORS", limit)
        assert_matches_reference(config)


def test_cohorts_merged_on_one_tick_flush_in_id_order():
    """One hub's sensors alternate between periods 2 and 3, so ticks 6 and
    12 fire both cohorts; the hub's batch must still be in id order."""
    sensors = [
        NodeSpec(sensor, "sensor", kind, period)
        for sensor, kind, period in [
            (1, ReadingKind.SCALAR, 2), (2, ReadingKind.VIDEO, 3),
            (3, ReadingKind.AUDIO, 2), (4, ReadingKind.SCALAR, 3),
            (5, ReadingKind.VIDEO, 2), (6, ReadingKind.AUDIO, 3),
        ]
    ]
    keys = {30: b"\x5a\x0f\xc3"}
    config = SimConfig(
        topology=Topology(
            nodes=(*sensors, NodeSpec(10, "hub"), NodeSpec(30, "sink"),
                   NodeSpec(99, "fusion_center")),
            edges=(*((s.id, 10) for s in sensors), (10, 30), (30, 99)),
            routes={10: (10, 30), 30: (30, 99)},
        ),
        sink_keys=keys,
        registry=dict(keys),
        seed=7,
        duration_ticks=12,
        sense_period_ticks=1,
        hop_latency_ticks=1,
    )
    report = run_simulation(config)
    assert report.fidelity_ok
    assert (report.readings_sensed, report.frames_sent) == (30, 8)
    assert report == ref_run_simulation(config)


@given(st.lists(st.integers(1, 4), min_size=6, max_size=6))
@example([2, 3, 2, 3, 2, 3])  # the config of the test above
@settings(max_examples=25, deadline=None)
def test_flush_encodes_each_batch_in_node_then_time_order(periods):
    """Whichever of the hub's cohorts fire on a tick, the batch it flushes
    is `aggregate` of the hub's readings of that tick, so it decodes in
    (node_id, timestamp) order."""
    kinds = [ReadingKind.SCALAR, ReadingKind.VIDEO, ReadingKind.AUDIO] * 2
    sensors = [
        NodeSpec(sensor, "sensor", kind, period)
        for sensor, (kind, period) in enumerate(zip(kinds, periods), start=1)
    ]
    keys = {30: b"\x5a\x0f\xc3"}
    config = SimConfig(
        topology=Topology(
            nodes=(*sensors, NodeSpec(10, "hub"), NodeSpec(30, "sink"),
                   NodeSpec(99, "fusion_center")),
            edges=(*((s.id, 10) for s in sensors), (10, 30), (30, 99)),
            routes={10: (10, 30), 30: (30, 99)},
        ),
        sink_keys=keys,
        registry=dict(keys),
        seed=7,
        duration_ticks=12,
        sense_period_ticks=1,
        hop_latency_ticks=1,
    )
    payloads = []

    def recording(key):  # the sink's cipher, noting each payload it seals
        seal = encryptor(key)

        def sealed(payload):
            payloads.append(payload)
            return seal(payload)

        return sealed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "encryptor", recording)
        report = run_simulation(config)
    assert report.fidelity_ok
    # the hub's batch of each tick on which any of its sensors fired
    expected = [
        aggregate([sense(s.id, s.kind, tick, config.seed)
                   for s in sensors if tick % s.sense_period_ticks == 0])
        for tick in range(1, config.duration_ticks + 1)
        if any(tick % s.sense_period_ticks == 0 for s in sensors)
    ]
    assert payloads == expected
    for payload in payloads:
        readings = decode_readings(payload)
        assert readings == sorted(readings, key=attrgetter("node_id", "timestamp"))


# (period, hop latency, duration): hundreds of arrival ticks in flight at
# once; at latency 50 a sink-bound and a fusion-bound batch share most ticks
@pytest.mark.parametrize("period, latency, duration",
                         [(1, 5_000, 300), (1, 50, 400), (3, 997, 200)])
def test_many_arrivals_in_flight_match_reference(period, latency, duration):
    doc = demo_dict()
    doc.update(sense_period_ticks=period, hop_latency_ticks=latency,
               duration_ticks=duration)
    doc["corruption"] = [{"frame": 7, "bit": 60}]
    config = config_from_dict(doc)
    expected = json.dumps(report_to_dict(ref_run_simulation(config)))
    assert json.dumps(report_to_dict(run_simulation(config))) == expected


def tied_config(routes, sensors, corrupted_frame):
    """Routes end at sinks and at fusion center 99, and every node inside a
    route is a relay; `sensors` lists (hub, kind, period) for sensor ids 1,
    2, ...  Hop latency 1, 12 ticks, bit 100 of one frame flipped."""
    sinks = {route[-1] for route in routes.values()} - {99}
    nodes = [NodeSpec(99, "fusion_center")]
    nodes += [NodeSpec(owner, "sink" if owner in sinks else "hub")
              for owner in routes]
    nodes += [NodeSpec(node, "relay")
              for route in routes.values() for node in route[1:-1]]
    nodes += [NodeSpec(sensor, "sensor", kind, period)
              for sensor, (_, kind, period) in enumerate(sensors, start=1)]
    edges = [hop for route in routes.values() for hop in zip(route, route[1:])]
    edges += [(sensor, hub) for sensor, (hub, _, _) in enumerate(sensors, start=1)]
    keys = {sink: bytes([sink]) * 3 for sink in sinks}
    return SimConfig(
        topology=Topology(nodes=tuple(nodes), edges=tuple(edges), routes=routes),
        sink_keys=keys,
        registry=keys,
        seed=7,
        duration_ticks=12,
        sense_period_ticks=1,
        hop_latency_ticks=1,
        corruption=(FrameCorruption(frame_index=corrupted_frame, bit_index=100),),
    )


SCALAR, AUDIO, VIDEO = ReadingKind.SCALAR, ReadingKind.AUDIO, ReadingKind.VIDEO


@pytest.mark.parametrize("config, expected", [
    # hub 11's batch flushed on tick 4 and hub 10's flushed on tick 6 both
    # reach sink 30 on tick 7; dispatch order puts hub 11's first, so frame
    # 2 is hub 11's and its two readings are the ones lost
    (tied_config(
        {10: (10, 30), 11: (11, 20, 21, 30), 30: (30, 99)},
        [(10, SCALAR, 3), (11, SCALAR, 2), (11, SCALAR, 2)],
        corrupted_frame=2,
    ),
     '{"readings_sensed": 16, "frames_sent": 10, "frames_delivered": 10,'
     ' "frames_rejected": {"checksum_mismatch": 1}, "readings_recovered": 14,'
     ' "fidelity_ok": false, "per_sink": {"30": {"frames_sent": 10,'
     ' "frames_delivered": 10, "frames_rejected": 1, "readings_recovered": 14}}}'),
    # hub 10 (to sink 31) dispatches before hub 11 (to sink 30) on tick 6,
    # but both sinks transmit on tick 7 in node order, so frame 3 is sink
    # 30's; on tick 8 hub 10 flushes while frames from both sinks, sent on
    # ticks 5 and 7, reach the fusion center
    (tied_config(
        {10: (10, 31), 11: (11, 30), 30: (30, 99), 31: (31, 40, 41, 99)},
        [(10, AUDIO, 2), (11, VIDEO, 3), (11, SCALAR, 3)],
        corrupted_frame=3,
    ),
     '{"readings_sensed": 14, "frames_sent": 10, "frames_delivered": 10,'
     ' "frames_rejected": {"checksum_mismatch": 1}, "readings_recovered": 12,'
     ' "fidelity_ok": false, "per_sink": {"30": {"frames_sent": 4,'
     ' "frames_delivered": 4, "frames_rejected": 1, "readings_recovered": 6},'
     ' "31": {"frames_sent": 6, "frames_delivered": 6, "frames_rejected": 0,'
     ' "readings_recovered": 6}}}'),
], ids=["one-sink-two-route-lengths", "two-sinks-two-route-lengths"])
def test_same_tick_events_run_in_stage_node_dispatch_order(config, expected):
    report = json.dumps(report_to_dict(run_simulation(config)))
    assert report == json.dumps(report_to_dict(ref_run_simulation(config)))
    assert report == expected


def test_invalid_config_lists_problems():
    doc = demo_dict()
    doc["keys"] = {}
    with pytest.raises(InvalidConfigError) as err:
        config_from_dict(doc)
    assert any("sink 30 has no key" in p for p in err.value.problems)


def test_config_missing_fields():
    with pytest.raises(InvalidConfigError) as err:
        config_from_dict({"nodes": []})
    assert any("missing field" in p for p in err.value.problems)


def test_config_rejects_bad_hex_key():
    doc = demo_dict()
    doc["keys"] = {"30": "zz"}
    with pytest.raises(InvalidConfigError):
        config_from_dict(doc)


def test_config_rejects_unknown_kind():
    doc = demo_dict()
    doc["nodes"][0]["kind"] = "thermal"
    with pytest.raises(InvalidConfigError):
        config_from_dict(doc)


@pytest.mark.parametrize("field, value, message", [
    ("nodes.0.kind", "thermal", "nodes[0] has unknown reading kind 'thermal'"
     " (valid kinds: scalar, audio, video)"),
    ("nodes.0.kind", None, "nodes[0] has unknown reading kind None"
     " (valid kinds: scalar, audio, video)"),
    ("nodes.1.kind", 0, "nodes[1] has unknown reading kind 0"
     " (valid kinds: scalar, audio, video)"),
    ("nodes.2", {"role": "hub"}, "nodes[2] is missing field 'id'"),
    ("nodes.3", {"id": 20}, "nodes[3] is missing field 'role'"),
    ("corruption", [{"frame": 0, "bit": 1}, {"frame": 1}],
     "corruption[1] is missing field 'bit'"),
    ("corruption", [{"bit": 1}], "corruption[0] is missing field 'frame'"),
    # an entry of the wrong shape is named, not Python's own message
    ("nodes", {"a": 1}, "'nodes' must be a JSON array"),
    ("nodes.0", [1, "sensor"], "nodes[0] must be a JSON object"),
    ("edges", {"a": 1}, "'edges' must be a JSON array"),
    ("edges.0", 5, "edges[0] must be a pair of node ids"),
    ("edges.0", [1, 10, 30], "edges[0] must be a pair of node ids"),
    ("edges.0", [1], "edges[0] must be a pair of node ids"),
    ("routes", {"10": 10, "30": [30, 20, 99]}, "routes['10'] must be a JSON array"),
    ("routes", {"10": "10,30", "30": [30, 20, 99]},
     "routes['10'] must be a JSON array"),
    ("keys", {"30": 5}, "keys['30'] must be a hex string"),
    ("keys", {"30": "zz"}, "keys['30'] must be a hex string"),
    ("fusion_registry", {"30": None}, "fusion_registry['30'] must be a hex string"),
    ("corruption", {"frame": 0, "bit": 1}, "'corruption' must be a JSON array"),
    ("corruption", [[0, 1]], "corruption[0] must be a JSON object"),
], ids=["thermal", "null", "zero", "no-id", "no-role", "no-bit", "no-frame",
        "nodes-object", "node-list", "edges-object", "edge-int", "edge-triple",
        "edge-single", "route-int", "route-string", "key-int", "key-not-hex",
        "registry-null", "corruption-object", "corruption-list"])
def test_config_errors_name_the_field_or_the_kind(field, value, message):
    with pytest.raises(InvalidConfigError) as err:
        config_from_dict(_set(field, value))
    assert err.value.problems == [f"malformed config: {message}"]


# the integer checks and the unknown fields, each named by its JSON path
@pytest.mark.parametrize("field, value, message", [
    ("nodes.3.id", "20", "nodes[3].id must be an integer, got '20'"),
    ("nodes.0.sense_period_ticks", 1.5,
     "nodes[0].sense_period_ticks must be an integer, got 1.5"),
    ("edges.0.1", 1.5, "edges[0][1] must be an integer, got 1.5"),
    ("edges.0", "12", "edges[0] must be a pair of node ids"),
    ("edges.0", {"1": 2, "3": 4}, "edges[0] must be a pair of node ids"),
    ("routes", {"10": [10, "30"], "30": [30, 20, 99]},
     "routes['10'][1] must be an integer, got '30'"),
    ("routes", {"10": [10, 30], "030": [30, 20, 99]},
     "'routes' key '030' is not a canonical decimal id"),
    ("seed", 1.7, "'seed' must be an integer, got 1.7"),
    ("hop_latency_ticks", "1", "'hop_latency_ticks' must be an integer, got '1'"),
    ("corruption", [{"frame": 0, "bit": True}],
     "corruption[0].bit must be an integer, got True"),
    ("nodes.0.sense_period_tick", 5, "nodes[0] has unknown field 'sense_period_tick'"),
    ("corruption", [{"frame": 0, "bit": 1, "byte": 0}],
     "corruption[0] has unknown field 'byte'"),
], ids=["node-id", "node-period", "edge-end", "edge-string", "edge-object",
        "route-node", "route-key", "seed", "latency", "corruption-bit", "node-typo",
        "corruption-typo"])
def test_config_errors_name_the_value_by_its_path(field, value, message):
    with pytest.raises(InvalidConfigError) as err:
        config_from_dict(_set(field, value))
    assert err.value.problems == [f"malformed config: {message}"]


def test_unknown_fields_are_listed_after_missing_ones():
    doc = demo_dict()
    doc["fusion_registy"] = {"30": "00"}
    doc["sede"] = doc.pop("seed")
    with pytest.raises(InvalidConfigError) as err:
        config_from_dict(doc)
    assert err.value.problems == [
        "missing field 'seed'",
        "unknown field 'fusion_registy'",
        "unknown field 'sede'",
    ]


def _set(field, value):
    """Demo doc with `field` (dotted keys and list indices) set to `value`."""
    doc = demo_dict()
    *parents, last = [int(s) if s.isdigit() else s for s in field.split(".")]
    target = doc
    for step in parents:
        target = target[step]
    target[last] = value
    return doc


@pytest.mark.parametrize(
    "field, value",
    [
        ("routes", [[10, 30], [30, 20, 99]]),
        ("keys", ["5a5a5a5a5a5a5a5a"]),
        ("fusion_registry", ["5a5a5a5a5a5a5a5a"]),
        ("seed", 1.7),
        ("seed", "10"),
        ("seed", True),
        ("duration_ticks", 100.0),
        ("duration_ticks", "100"),
        ("sense_period_ticks", 10.5),
        ("sense_period_ticks", True),
        ("hop_latency_ticks", "1"),
        ("hop_latency_ticks", 1.7),
        ("nodes.0.id", 1.7),
        ("nodes.0.id", "1"),
        ("nodes.0.id", True),
        ("edges.0.0", "1"),
        ("edges.0.1", 10.0),
        ("edges.0.1", True),
        ("routes", {"010": [10, 30], "30": [30, 20, 99]}),
        ("keys", {"+30": "5a5a5a5a5a5a5a5a"}),
        ("fusion_registry", {"3_0": "5a5a5a5a5a5a5a5a"}),
        ("keys", {" 30": "5a5a5a5a5a5a5a5a"}),
        # an id key too long for int() (JSON limits a number, not a string)
        ("routes", {"10": [10, 30], "30": [30, 20, 99], "1" * 5000: [10, 30]}),
    ],
)
def test_config_rejects_bad_shapes_and_types(field, value):
    with pytest.raises(InvalidConfigError) as err:
        config_from_dict(_set(field, value))
    assert all(p.startswith("malformed config") for p in err.value.problems)


def _json_paths(node, path=()):
    """Key/index paths of every value nested in a parsed JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for step, child in children:
        yield path + (step,)
        yield from _json_paths(child, path + (step,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


# any JSON value, or one of a kind that some config value takes, so that
# some mutants still validate and run
config_values = json_values | st.integers(-1, 100) | st.sampled_from(
    ["scalar", "video", "sensor", "relay", "5a", "", "30"]
)
# real field names, near-misses of them, and any short text
config_keys = st.sampled_from([
    "kind", "sense_period_ticks", "fusion_registry", "corruption",
    "fusion_registy", "sense_period_tick",
]) | st.text(max_size=4)


@st.composite
def mutated_demo_docs(draw):
    """The demo config after 1 to 3 edits, each one of: a value replaced,
    a key or entry deleted, or a key added to an object."""
    doc = demo_dict()
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(doc))
        edit = draw(st.sampled_from(["replace", "delete", "add"]))
        if edit == "add":
            objects = [()] + [p for p in paths if isinstance(_at(doc, p), dict)]
            target = _at(doc, draw(st.sampled_from(objects)))
            target[draw(config_keys)] = draw(config_values)
        elif edit == "delete" and paths:
            *parents, last = draw(st.sampled_from(paths))
            del _at(doc, parents)[last]
        elif edit == "replace":
            *parents, last = draw(st.sampled_from(paths))
            _at(doc, parents)[last] = draw(config_values)
    return doc


# a config that validates is run; one that would sense more readings than
# this is skipped (and counted as a Hypothesis event), since a valid
# duration_ticks of 2**32 - 1 at period 1 would run for hours
READING_CAP = 10**5


@settings(deadline=None)
@given(mutated_demo_docs())
@example(demo_dict())
@example({**demo_dict(), "fusion_registy": {"30": "00"}})
def test_config_from_dict_raises_only_invalid_config_error(doc):
    try:
        config = config_from_dict(doc)
    except InvalidConfigError as exc:
        problems = exc.problems
    else:
        problems = []
        readings = sum(
            config.duration_ticks
            // (node.sense_period_ticks or config.sense_period_ticks)
            for node in config.topology.nodes
            if node.role == ROLE_SENSOR
        )
        if readings > READING_CAP:
            event("skipped: more readings than READING_CAP")
            return
        json.dumps(report_to_dict(run_simulation(config)))
    # the CLI: a run's exit code, or exit 2 with one error line per problem
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["simulate", "--config", path])
    if problems:
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == "".join(f"error: {p}\n" for p in problems)
    else:
        assert code in (0, 1)
        assert err.getvalue() == ""


def test_config_object_keys_parse_as_ids():
    config = config_from_dict(demo_dict())  # "10", "30" as JSON object keys
    assert set(config.topology.routes) == {10, 30}
    assert set(config.sink_keys) == set(config.registry) == {30}


def test_corruption_bit_past_longest_frame_is_rejected():
    config = load_config(str(CONFIG_PATH))
    # every demo frame carries both sensors: 12 + 2 + (8 + 2) + (8 + 16) bytes
    last = dataclasses.replace(config, corruption=(FrameCorruption(0, 383),))
    assert run_simulation(last).frames_rejected == {"checksum_mismatch": 1}
    with pytest.raises(InvalidConfigError) as err:
        dataclasses.replace(config, corruption=(FrameCorruption(0, 384),))
    assert err.value.problems == [
        "corruption[0].bit must be below the longest possible frame (384 bits),"
        " got 384"
    ]


def test_config_is_validated_when_built():
    config = load_config(str(CONFIG_PATH))
    with pytest.raises(InvalidConfigError) as err:
        dataclasses.replace(config, duration_ticks=0)
    assert err.value.problems == ["duration_ticks must be >= 1"]


@st.composite
def valid_demo_docs(draw):
    """The demo config with up to 3 more sensors on its hub and every number,
    kind, key and hook drawn across its whole valid range, edges included.
    `duration_ticks` is bounded by the shortest sense period, so no sensor
    fires more than 64 times however large the periods are."""
    doc = demo_dict()
    taken = {node["id"] for node in doc["nodes"]}
    for sensor_id in draw(st.sets(
        st.sampled_from([0, 3, 1000, 0xFFFF]), max_size=3
    )) - taken:
        doc["nodes"].append({"id": sensor_id, "role": "sensor"})
        doc["edges"].append([sensor_id, 10])
    periods = st.integers(1, 12) | st.sampled_from([0xFFFFFFFF, 1 << 40])
    doc["sense_period_ticks"] = draw(periods)
    shortest = doc["sense_period_ticks"]
    longest_batch = 2
    for node in doc["nodes"]:
        if node["role"] != "sensor":
            continue
        node["kind"] = draw(st.sampled_from(["scalar", "audio", "video"]))
        longest_batch += 8 + VALUE_LENGTHS[ReadingKind[node["kind"].upper()]]
        if draw(st.booleans()):
            node["sense_period_ticks"] = draw(periods)
        shortest = min(shortest, node.get("sense_period_ticks", shortest))
    doc["duration_ticks"] = draw(st.integers(1, min(64 * shortest, 0xFFFFFFFF)))
    doc["hop_latency_ticks"] = draw(st.integers(1, 3) | st.just(1 << 64))
    doc["seed"] = draw(st.integers(0, (1 << 64) - 1))
    keys = st.binary(min_size=1, max_size=32).map(bytes.hex)
    own = draw(keys)
    doc["keys"] = {"30": own}
    doc["fusion_registry"] = draw(
        st.just({"30": own})
        | st.just({})
        | keys.map(lambda other: {"30": other})
        | keys.map(lambda extra: {"30": own, "99": extra})
    )
    frame_bits = 8 * (HEADER_LEN + longest_batch + 1)
    doc["corruption"] = [
        {"frame": frame, "bit": bit}
        for frame, bit in draw(st.lists(st.tuples(
            st.integers(0, 20) | st.just(1 << 64),
            st.integers(0, frame_bits - 1),
        ), max_size=3))
    ]
    return doc


@settings(deadline=None)
@given(valid_demo_docs())
def test_every_config_that_validates_runs_to_completion(doc):
    report = run_simulation(config_from_dict(doc))
    assert report.frames_delivered == report.frames_sent
    assert sum(report.frames_rejected.values()) == sum(
        stats.frames_rejected for stats in report.per_sink.values()
    )
    json.dumps(report_to_dict(report))


def video_hub_config(sensor_count):
    """One hub carrying `sensor_count` video sensors, ids 1..sensor_count."""
    hub, sink, fusion = 0xF000, 0xF001, 0xF002
    sensors = range(1, sensor_count + 1)
    topology = Topology(
        nodes=tuple(NodeSpec(s, "sensor", ReadingKind.VIDEO) for s in sensors)
        + (NodeSpec(hub, "hub"), NodeSpec(sink, "sink"),
           NodeSpec(fusion, "fusion_center")),
        edges=tuple((s, hub) for s in sensors) + ((hub, sink), (sink, fusion)),
        routes={hub: (hub, sink), sink: (sink, fusion)},
    )
    keys = {sink: b"\x5a" * 8}
    return dict(topology=topology, sink_keys=keys, registry=dict(keys),
                seed=1, duration_ticks=2, sense_period_ticks=1,
                hop_latency_ticks=1)


def test_oversized_hub_batch_is_rejected():
    with pytest.raises(InvalidConfigError) as err:
        SimConfig(**video_hub_config(1639))  # 2 + 1639 * 40 bytes
    assert err.value.problems == [
        f"hub {0xF000} worst-case batch of 65562 bytes exceeds {MAX_PAYLOAD}"
    ]


def test_largest_hub_batch_runs():
    config = SimConfig(**video_hub_config(1638))  # 2 + 1638 * 40 = 65,522
    report = run_simulation(config)
    assert report.readings_sensed == report.readings_recovered == 2 * 1638
    assert report.frames_delivered == 2
    assert report.fidelity_ok


def test_batch_size_check_skipped_on_broken_topology():
    params = video_hub_config(1639)
    topology = params["topology"]
    params["topology"] = dataclasses.replace(
        topology, nodes=topology.nodes + (NodeSpec(7, "sensor"),)
    )
    with pytest.raises(InvalidConfigError) as err:
        SimConfig(**params)
    assert not any("worst-case batch" in p for p in err.value.problems)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(InvalidConfigError):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InvalidConfigError):
        load_config(str(path))


@pytest.mark.parametrize(
    "content, cause",
    [
        ("[" * 200_000, "maximum recursion depth"),
        ('{"seed": ' + "9" * 5000 + "}", "integer string conversion"),
    ],
    ids=["nested-200000-deep", "5000-digit-int"],
)
def test_load_config_turns_parser_limits_into_invalid_config(tmp_path, content, cause):
    path = tmp_path / "limit.json"
    path.write_text(content)
    with pytest.raises(InvalidConfigError) as err:
        load_config(str(path))
    [problem] = err.value.problems
    assert problem.startswith("config exceeds a JSON parser limit")
    assert cause in problem


@pytest.mark.parametrize(
    "field, text",
    [
        ("keys", '{"30": "5a5a5a5a5a5a5a5a", "30": "0101"}'),
        ("routes", '{"10": [10, 30], "30": [30, 20, 99], "30": [30, 20, 99]}'),
        ("fusion_registry", '{"30": "5a5a5a5a5a5a5a5a", "30": "0101"}'),
    ],
)
def test_load_config_rejects_repeated_keys(tmp_path, field, text):
    doc = demo_dict()
    doc[field] = None
    path = tmp_path / "repeated.json"
    content = json.dumps(doc).replace(f'"{field}": null', f'"{field}": {text}')
    path.write_text(content)
    with pytest.raises(InvalidConfigError) as err:
        load_config(str(path))
    assert err.value.problems == ["config repeats the key '30'"]


def test_report_json_shape():
    report = run_simulation(load_config(str(CONFIG_PATH)))
    doc = report_to_dict(report)
    assert json.loads(json.dumps(doc)) == doc
    assert set(doc) == {
        "readings_sensed",
        "frames_sent",
        "frames_delivered",
        "frames_rejected",
        "readings_recovered",
        "fidelity_ok",
        "per_sink",
    }
    assert doc["per_sink"]["30"]["frames_delivered"] == 10


def test_relay_transparency_end_to_end():
    # adding relays must not change what the fusion center recovers
    doc = demo_dict()
    base = run_simulation(config_from_dict(doc))
    longer = copy.deepcopy(doc)
    longer["nodes"].append({"id": 21, "role": "relay"})
    longer["edges"] = [e for e in longer["edges"] if e != [20, 99]]
    longer["edges"] += [[20, 21], [21, 99]]
    longer["routes"]["30"] = [30, 20, 21, 99]
    rerouted = run_simulation(config_from_dict(longer))
    assert rerouted.readings_recovered == base.readings_recovered == 20
    assert rerouted.fidelity_ok


def _two_more_relays(config):
    """`config` with sink 31's route to the fusion center two relays longer."""
    topology = config.topology
    return dataclasses.replace(config, topology=Topology(
        nodes=topology.nodes + (NodeSpec(22, "relay"), NodeSpec(23, "relay")),
        edges=tuple(e for e in topology.edges if e != (21, 99))
        + ((21, 22), (22, 23), (23, 99)),
        routes={**topology.routes, 31: (31, 20, 21, 22, 23, 99)},
    ))


@pytest.mark.parametrize("change", [
    _two_more_relays,
    lambda config: dataclasses.replace(config, hop_latency_ticks=5),
], ids=["longer-sink-route", "slower-hops"])
def test_arrival_at_the_fusion_center_moves_no_fact(change):
    # the run does not schedule a frame's trip from its sink to the fusion
    # center, so how long that trip takes must not show.  Both changes move
    # the two sinks' frames against each other at the fusion center; every
    # hub route of the golden config is one hop, so slower hops delay every
    # batch to its sink alike
    config = golden_config()
    changed = change(config)
    assert changed != config
    reports = [report_to_dict(run_simulation(c)) for c in (config, changed)]
    assert reports[0] == reports[1]
    assert frame_digest(changed) == frame_digest(config)


# -- golden reports -------------------------------------------------------------------


def golden_config():
    """Two sinks, sink 31 three hops from the fusion center; per-sensor
    periods; hop latency 2; two corruption hooks; sink 31's key is
    misregistered by one bit."""
    topology = Topology(
        nodes=(
            NodeSpec(1, "sensor", ReadingKind.SCALAR),
            NodeSpec(2, "sensor", ReadingKind.VIDEO, sense_period_ticks=3),
            NodeSpec(3, "sensor", ReadingKind.AUDIO, sense_period_ticks=7),
            NodeSpec(4, "sensor", ReadingKind.SCALAR, sense_period_ticks=2),
            NodeSpec(10, "hub"),
            NodeSpec(11, "hub"),
            NodeSpec(20, "relay"),
            NodeSpec(21, "relay"),
            NodeSpec(30, "sink"),
            NodeSpec(31, "sink"),
            NodeSpec(99, "fusion_center"),
        ),
        edges=((1, 10), (2, 10), (3, 11), (4, 11), (10, 30), (11, 31),
               (30, 99), (31, 20), (20, 21), (21, 99)),
        routes={10: (10, 30), 11: (11, 31), 30: (30, 99),
                31: (31, 20, 21, 99)},
    )
    keys = {30: bytes.fromhex("5a5a5a5a5a5a5a5a"), 31: bytes.fromhex("0123456789")}
    return SimConfig(
        topology=topology,
        sink_keys=keys,
        registry={30: keys[30], 31: bytes.fromhex("0123456788")},
        seed=2024,
        duration_ticks=30,
        sense_period_ticks=5,
        hop_latency_ticks=2,
        corruption=(FrameCorruption(frame_index=1, bit_index=100),
                    FrameCorruption(frame_index=4, bit_index=3)),
    )


GOLDEN_REPORT = (
    '{"readings_sensed": 35, "frames_sent": 31, "frames_delivered": 31,'
    ' "frames_rejected": {"bad_magic": 1, "checksum_mismatch": 1,'
    ' "decode_after_decrypt": 17}, "readings_recovered": 14,'
    ' "fidelity_ok": false, "per_sink": {"30": {"frames_sent": 14,'
    ' "frames_delivered": 14, "frames_rejected": 2, "readings_recovered": 14},'
    ' "31": {"frames_sent": 17, "frames_delivered": 17, "frames_rejected": 17,'
    ' "readings_recovered": 0}}}'
)

DEMO_REPORT = (
    '{"readings_sensed": 20, "frames_sent": 10, "frames_delivered": 10,'
    ' "frames_rejected": {}, "readings_recovered": 20, "fidelity_ok": true,'
    ' "per_sink": {"30": {"frames_sent": 10, "frames_delivered": 10,'
    ' "frames_rejected": 0, "readings_recovered": 20}}}'
)


def test_golden_report_is_pinned():
    report = run_simulation(golden_config())
    assert json.dumps(report_to_dict(report)) == GOLDEN_REPORT


def test_demo_report_is_pinned():
    report = run_simulation(load_config(str(CONFIG_PATH)))
    assert json.dumps(report_to_dict(report)) == DEMO_REPORT


def frame_digest(config):
    """sha256 of every frame the run encodes, joined in transmit order."""
    digest = hashlib.sha256()

    def recording(frame):
        encoded = encode_frame(frame)
        digest.update(encoded)
        return encoded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "encode_frame", recording)
        run_simulation(config)
    return digest.hexdigest()


# the reports above count frames; these pin their bytes, so a change to
# sequence numbers, frame order or payloads shows even where no corruption
# hook lands on it
@pytest.mark.parametrize("config, expected", [
    (load_config(str(CONFIG_PATH)),
     "60fe11dbba2dc2d48b14d2e69174e05614882657851137c35364f3ee2f553ae5"),
    (golden_config(),
     "571ffd9913e2b7172e9fe966d57ad503d74bf41c3401f0d9a800a6cb1eb2a22b"),
    (tied_config(
        {10: (10, 30), 11: (11, 20, 21, 30), 30: (30, 99)},
        [(10, SCALAR, 3), (11, SCALAR, 2), (11, SCALAR, 2)],
        corrupted_frame=2,
    ),
     "8343f4516529215754ff89aafdbbdf4b726f4c075d2ac3d0094d0826df706c17"),
    (tied_config(
        {10: (10, 31), 11: (11, 30), 30: (30, 99), 31: (31, 40, 41, 99)},
        [(10, AUDIO, 2), (11, VIDEO, 3), (11, SCALAR, 3)],
        corrupted_frame=3,
    ),
     "8517dc27cd2ddf9a93a755dc6afb0c8ccb849ee3c3848d65d05e062806681fed"),
], ids=["demo", "golden", "one-sink-two-route-lengths", "two-sinks-two-route-lengths"])
def test_frame_bytes_are_pinned(config, expected):
    assert frame_digest(config) == expected


def test_run_demo_sim_script(capsys):
    script = runpy.run_path(str(ROOT / "scripts" / "run_demo_sim.py"))
    script["main"]()
    out = capsys.readouterr().out
    clean, corrupted = out.split("\nwith one bit flipped in frame 0:\n")
    clean_report = json.loads(clean.removeprefix("clean run:\n"))
    assert json.dumps(clean_report) == DEMO_REPORT
    assert json.loads(corrupted)["frames_rejected"] == {"checksum_mismatch": 1}


def test_run_demo_sim_script_passes_its_own_checks(capsys):
    script = runpy.run_path(str(ROOT / "scripts" / "run_demo_sim.py"))
    assert script["main"]() == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("spoiled_run, spoil", [
    (0, lambda report: dataclasses.replace(report, fidelity_ok=False)),
    (0, lambda report: dataclasses.replace(report, frames_rejected={"truncated": 1})),
    (0, lambda report: dataclasses.replace(
        report, readings_recovered=report.readings_recovered - 1)),
    (1, lambda report: dataclasses.replace(report, frames_rejected={})),
    (1, lambda report: dataclasses.replace(
        report, frames_rejected={"checksum_mismatch": 1, "truncated": 1})),
])
def test_run_demo_sim_script_fails_on_a_wrong_report(
    spoiled_run, spoil, monkeypatch, capsys
):
    main = runpy.run_path(str(ROOT / "scripts" / "run_demo_sim.py"))["main"]
    runs = []

    def spoiling(config):
        runs.append(config)
        report = run_simulation(config)
        return spoil(report) if len(runs) - 1 == spoiled_run else report

    monkeypatch.setitem(main.__globals__, "run_simulation", spoiling)
    assert main() == 1
    assert len(runs) == 2
    assert capsys.readouterr().err.startswith("run_demo_sim: ")
