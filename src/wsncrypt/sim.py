"""Deterministic discrete-event simulation of the telemetry pipeline.

Sensors fire on fixed periods and hand readings to their hub; each hub
sends one aggregated batch every tick it received anything; the batch is
relayed hop by hop to the hub's sink; the sink encrypts it, wraps it in a
frame, and relays the frame to the fusion center, which looks up the key
for the sending sink, decrypts, checks and counts the batch's records, and
tallies the result.  Intermediate nodes forward bytes untouched and never
decrypt.

One event queue drives the run: a heap of sense, transmit and receive
events, popped in the order tick, then stage (in that order), then node id,
then dispatch order (batches that reach one sink on one tick go out in the
order their hubs sent them).  Idle ticks hold no event, so a run costs time
in proportion to its readings and frames, not to `duration_ticks`.

Hubs are cut into hub groups: runs of consecutive hubs, in id order, with
at most _GROUP_SENSORS sensors in all (a larger hub is a group alone).  A
sense event, keyed by its group's first hub id and its period, fires a
cohort: the sensors of one group that share a period.  Each of their value
words has its own 128-bit lane of one integer, so `rng.mix64_lanes` derives
every value of a firing in a few whole-integer operations, and a group pays
a firing's fixed cost once for all its hubs.  A firing yields each sensor's
encoded batch record, byte for byte `sense`'s reading as `encode_readings`
writes it; no reading is built.  Two cohorts of one group may fire on one
tick; after the last, each hub of the group, in id order, sorts its records
(a record starts with its node id, big-endian, so byte order is node id
order) and sends their count and the records as its batch, byte for byte
what `aggregate` gives.  The fusion center decrypts every frame it
accepts and checks and counts every record of its batch, without building
the readings (only `fusion_receive` builds them), and the run checks the
decrypted batch against the bytes its hub sent.

The whole run is a pure function of SimConfig: sensor values come from the
seeded mixer in `wsncrypt.rng` and the event order is total, so two runs of
one config are bit-identical.  The only way to lose data is the explicit
corruption hook (flip one bit of one frame), which exists to exercise the
rejection accounting at the fusion center.

The stages (`sense`, `aggregate`, `relay`, `sink_transmit`) assume a
validated config: building a SimConfig checks every node, role, edge and
route once, so the stages re-check none of it.

Configs load from JSON; see `config_from_dict` for the exact field names.
"""

from __future__ import annotations

import heapq
import itertools
import json
import operator
import re
import struct
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from . import rng
from .cipher import MAX_KEY_BYTES, decrypt, encrypt
from .topology import (
    ROLE_SINK,
    NodeSpec,
    Topology,
    validate_topology,
)
from .wire import (
    CHECKSUM_LEN,
    COUNT_LEN,
    HEADER_LEN,
    MAX_PAYLOAD,
    RECORD_HEADER_LEN,
    DecodeError,
    Frame,
    ReadingKind,
    SensorReading,
    WireError,
    _COUNT,
    _RECORD,
    _build_readings,
    _count_readings,
    decode_frame,
    encode_frame,
    encode_readings,
)

VALUE_LENGTHS = {
    ReadingKind.SCALAR: 2,
    ReadingKind.AUDIO: 16,
    ReadingKind.VIDEO: 32,
}

# derive_bytes's (i * GOLDEN) for each word i of a value of each kind
_WORD_STEPS = {
    kind: [(i * rng.GOLDEN) & rng.MASK64 for i in range(1, -(-length // 8) + 1)]
    for kind, length in VALUE_LENGTHS.items()
}
# the struct codes that cut a value of each kind out of its words: the
# value, then the rest of its last word
_VALUE_CODES = {
    kind: f"{length}s{8 * len(_WORD_STEPS[kind]) - length}x"
    for kind, length in VALUE_LENGTHS.items()
}


class UnknownSinkError(DecodeError):
    """Fusion center has no key registered for the frame's sink."""

    kind = "unknown_sink"


class DecodeAfterDecryptError(DecodeError):
    """Payload decrypted but did not parse as a reading batch (wrong key or
    corrupted-but-checksum-colliding payload)."""

    kind = "decode_after_decrypt"


class InvalidConfigError(ValueError):
    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class FrameCorruption:
    """Flip bit `bit_index` (MSB-first across the byte stream) of the
    `frame_index`-th frame transmitted, counting every sink's frames in one
    global sequence."""

    frame_index: int
    bit_index: int


@dataclass(frozen=True)
class SimConfig:
    """A complete simulation input; building one validates it, so every
    SimConfig that exists is runnable.  Raises InvalidConfigError."""

    topology: Topology
    sink_keys: Dict[int, bytes]
    registry: Dict[int, bytes]
    seed: int
    duration_ticks: int
    sense_period_ticks: int
    hop_latency_ticks: int
    corruption: Tuple[FrameCorruption, ...] = ()

    def __post_init__(self) -> None:
        problems = _validate_config(self)
        if problems:
            raise InvalidConfigError(problems)


@dataclass
class SinkStats:
    frames_sent: int = 0
    frames_delivered: int = 0
    frames_rejected: int = 0
    readings_recovered: int = 0


@dataclass
class SimReport:
    readings_sensed: int
    frames_sent: int
    frames_delivered: int
    frames_rejected: Dict[str, int]
    readings_recovered: int
    fidelity_ok: bool
    per_sink: Dict[int, SinkStats] = field(default_factory=dict)


def sense(node_id: int, kind: ReadingKind, tick: int, seed: int) -> SensorReading:
    """Deterministic reading of sensor `node_id` of `kind` at `tick`.

    Value bytes come from the documented multiply-xor-shift mixer; length
    is fixed per kind (scalar 2, audio 16, video 32).
    """
    stream_seed = rng.mix64(seed) ^ rng.mix64((node_id << 32) | (tick & 0xFFFFFFFF))
    value = rng.derive_bytes(stream_seed, VALUE_LENGTHS[kind])
    return SensorReading(node_id, tick, kind, value)


def _cohort_sensor(
    sensors: Sequence[Tuple[int, ReadingKind]], seed: int
) -> Callable[[int], List[bytes]]:
    """Sensing for a cohort: returns `at(tick)`, which equals each sensor's
    `sense(n, k, tick, seed)` encoded as its batch record, in `sensors`
    order, for ticks 1..0xFFFFFFFF.

    Every value word of every sensor gets its own 128-bit lane of one
    integer, so a firing runs `sense`'s two mixes over all the words at once
    (`rng.mix64_lanes`) and makes one `to_bytes`.  The record headers are
    one more integer, which takes the tick into every timestamp field in one
    multiply-add, and one `struct.Struct` cuts every header and every value
    out of the two byte strings.
    """
    stream_ids: List[int] = []  # per word, its sensor's (node_id << 32)
    steps: List[int] = []  # per word, derive_bytes's i * GOLDEN
    heads = []  # per sensor, its record header at tick 0
    for node_id, kind in sensors:
        kind_steps = _WORD_STEPS[kind]
        stream_ids += [node_id << 32] * len(kind_steps)
        steps += kind_steps
        heads.append(_RECORD.pack(node_id, 0, kind, VALUE_LENGTHS[kind]))
    count = len(sensors)
    # cuts every header, then every value
    parts = struct.Struct(
        ">" + f"{RECORD_HEADER_LEN}s" * count
        + "".join([_VALUE_CODES[kind] for _, kind in sensors])
    ).unpack
    # every header at tick 0, and a 1 in every header's timestamp field
    headers = int.from_bytes(b"".join(heads), "big")
    timestamps = int.from_bytes(_RECORD.pack(0, 1, 0, 0) * count, "big")
    head_size = RECORD_HEADER_LEN * count
    ones = _lanes([1] * len(steps))
    base, golden = _lanes(stream_ids), _lanes(steps)
    mask = ones * rng.MASK64
    seeds = rng.mix64(seed) * ones
    size = 16 * len(steps)
    add = operator.add

    def at(tick: int) -> List[bytes]:
        # each lane's stream seed, then its derive_bytes word
        x = rng.mix64_lanes(base + tick * ones, mask) ^ seeds
        x = rng.mix64_lanes(x + golden, mask)
        # big-endian, each lane's empty high half comes first: drop them
        stream = memoryview(x.to_bytes(size, "big")).cast("Q")[1::2].tobytes()
        # a u32 tick carries into no other field of a header
        cut = parts((headers + tick * timestamps).to_bytes(head_size, "big") + stream)
        return list(map(add, cut[:count], cut[count:]))

    return at


def _lanes(words: Sequence[int]) -> int:
    """64-bit words packed into 128-bit lanes of one integer, first word in
    the highest lane."""
    # per lane, big-endian: 8 zero bytes, then the word
    return int.from_bytes(struct.pack(">" + "8xQ" * len(words), *words), "big")


# the key, not the whole reading: equal (node_id, timestamp) pairs keep
# their input order
_NODE_THEN_TIME = operator.attrgetter("node_id", "timestamp")


def aggregate(readings: Sequence[SensorReading]) -> bytes:
    """Serialize a hub's batch, ordered by (node_id, timestamp)."""
    return encode_readings(sorted(readings, key=_NODE_THEN_TIME))


def sink_transmit(sink_id: int, payload: bytes, sequence: int, key: bytes) -> Frame:
    """Encrypt a batch payload and wrap it in a cleartext-header frame."""
    return Frame(sink_id, sequence, encrypt(payload, key))


def relay(path: Sequence[int], hop_latency_ticks: int) -> List[Tuple[int, int]]:
    """Forwarding schedule along a route: (node, ticks-after-departure) per
    hop, last entry being the destination.  Bytes are never altered."""
    return [
        (node_id, hop * hop_latency_ticks)
        for hop, node_id in enumerate(path[1:], start=1)
    ]


def fusion_receive(
    frame_bytes: bytes, registry: Mapping[int, bytes]
) -> List[SensorReading]:
    """Decode, key-select, decrypt, and re-parse one received frame.

    Raises a DecodeError subclass (a wire one, UnknownSinkError, or
    DecodeAfterDecryptError); callers count those as rejections.  Its first
    two steps, frame to plaintext (`_open_frame`) and the check and count of
    every record (`_parse_batch`), are the ones `run_simulation` calls, so
    that it can compare the plaintext with the batch its hub sent; only
    here are the readings built.
    """
    sink_id, plaintext = _open_frame(frame_bytes, registry)
    return _build_readings(plaintext, _parse_batch(sink_id, plaintext))


def _open_frame(
    frame_bytes: bytes, registry: Mapping[int, bytes]
) -> Tuple[int, bytes]:
    """`fusion_receive`'s first half: the frame's sink id and its decrypted
    payload."""
    frame = decode_frame(frame_bytes)
    key = registry.get(frame.sink_id)
    if key is None:
        raise UnknownSinkError(f"no key registered for sink {frame.sink_id}")
    return frame.sink_id, decrypt(frame.payload, key)


def _parse_batch(sink_id: int, plaintext: bytes) -> int:
    """`fusion_receive`'s second step: the record count of a decrypted
    payload, once every record has been checked; no reading is built."""
    try:
        return _count_readings(plaintext)
    except WireError as exc:
        raise DecodeAfterDecryptError(
            f"payload from sink {sink_id} decrypted but failed to"
            f" parse: {exc}"
        ) from exc


def _validate_config(config: SimConfig) -> List[str]:
    topology = config.topology
    problems = validate_topology(topology)
    if not problems:
        batches = _worst_case_batches(topology)
        for hub_id, size in batches.items():
            if size > MAX_PAYLOAD:
                problems.append(
                    f"hub {hub_id} worst-case batch of {size} bytes exceeds"
                    f" {MAX_PAYLOAD}"
                )
        # a frame is a header, one hub batch (encrypted, same length), a checksum
        frame_bits = 8 * (HEADER_LEN + max(batches.values(), default=0) + CHECKSUM_LEN)
        for hook in config.corruption:
            if hook.bit_index >= frame_bits:
                problems.append(
                    f"corruption bit {hook.bit_index} is past the longest"
                    f" possible frame ({frame_bits} bits)"
                )
    if config.duration_ticks < 1:
        problems.append("duration_ticks must be >= 1")
    if config.duration_ticks > 0xFFFFFFFF:
        problems.append("duration_ticks must fit u32 timestamps")
    if config.sense_period_ticks < 1:
        problems.append("sense_period_ticks must be >= 1")
    if config.hop_latency_ticks < 1:
        problems.append("hop_latency_ticks must be >= 1")
    if not 0 <= config.seed < (1 << 64):
        problems.append("seed must fit u64")
    for sink_id in topology.ids_with_role(ROLE_SINK):
        if sink_id not in config.sink_keys:
            problems.append(f"sink {sink_id} has no key")
    for owner, key in list(config.sink_keys.items()) + list(
        config.registry.items()
    ):
        if not 1 <= len(key) <= MAX_KEY_BYTES:
            problems.append(
                f"key for sink {owner} must be 1..{MAX_KEY_BYTES} bytes"
            )
    for hook in config.corruption:
        if hook.frame_index < 0 or hook.bit_index < 0:
            problems.append("corruption indices must be non-negative")
    return problems


def _worst_case_batches(topology: Topology) -> Dict[int, int]:
    """Bytes of each hub's batch when every adjacent sensor fires in one
    tick.  Needs a valid topology."""
    return {
        hub_id: COUNT_LEN + sum(
            RECORD_HEADER_LEN + VALUE_LENGTHS[sensor.kind] for sensor in sensors
        )
        for hub_id, sensors in topology.hub_sensors().items()
    }


def _flip_bit(data: bytes, bit_index: int) -> bytes:
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (7 - bit_index % 8)
    return bytes(out)


# the event stages of run_simulation, in the order each tick runs them
SENSE, TRANSMIT, RECEIVE = range(3)

# The most sensors in a hub group.  A firing costs ~4.5 us fixed plus ~0.5 us
# per sensor, so at 256 the fixed part is ~4%, and its lane integers stay
# under 16 KB.  Unbounded groups (2.2 MB integers) ran the 60,301-node ladder
# rung 6-20% slower.  In process, sim-wide ran 1.04x at 256 against 64, and
# 1,024 gained nothing on the 17,153- and 60,301-node rungs.
_GROUP_SENSORS = 256


def run_simulation(config: SimConfig) -> SimReport:
    """Run the full pipeline to quiescence and account for every frame.

    The config was validated when it was built.  Sensing stops after
    `duration_ticks`; in-flight batches and frames are drained afterwards
    so nothing is cut off mid-route.  `fidelity_ok` is true iff no frame
    was rejected and every delivered frame decrypted to exactly the batch
    its hub sent, checked frame by frame.  The codec is canonical, so for a
    frame that parses this holds exactly when its readings are the ones its
    hub sensed.
    """
    topology = config.topology
    duration = config.duration_ticks
    # each hub's sensors that fire within the run, (period, id, kind) in id
    # order, cut into hub groups: runs of consecutive hubs, in id order, with
    # at most _GROUP_SENSORS of them in all; a larger hub is a group alone
    groups: List[List[Tuple[int, List[Tuple[int, int, ReadingKind]]]]] = []
    size = 0
    hub_sensors = topology.hub_sensors()
    for hub_id in sorted(hub_sensors):
        sensors = []
        for node in hub_sensors[hub_id]:
            period = node.sense_period_ticks or config.sense_period_ticks
            if period <= duration:
                sensors.append((period, node.id, node.kind))
        if not sensors:
            continue
        if not groups or size + len(sensors) > _GROUP_SENSORS:
            groups.append([])
            size = 0
        groups[-1].append((hub_id, sensors))
        size += len(sensors)
    # a cohort is the sensors of one group that share a period, in (hub, id)
    # order, and `cuts` slices each hub's readings, in group order, out of
    # its firing.  (tick, stage, first hub, period) is unique, so no
    # comparison reaches a cohort
    events = []
    for group in groups:
        hub_ids = tuple(hub_id for hub_id, _ in group)
        by_period: Dict[int, List[List[Tuple[int, ReadingKind]]]] = {}
        for i, (_, sensors) in enumerate(group):
            for period, sensor_id, kind in sensors:
                if period not in by_period:
                    by_period[period] = [[] for _ in group]
                by_period[period][i].append((sensor_id, kind))
        for period, per_hub in by_period.items():
            ends = list(itertools.accumulate(map(len, per_hub)))
            cuts = tuple(map(slice, [0, *ends], ends))
            cohort = _cohort_sensor(list(itertools.chain(*per_hub)), config.seed)
            events.append((period, SENSE, hub_ids[0], period, cohort, hub_ids, cuts))
    heapq.heapify(events)
    # ticks from a route's first node to its last, and that last node (a
    # hub's sink); routes never change
    transit = {
        owner: relay(route, config.hop_latency_ticks)[-1][1]
        for owner, route in topology.routes.items()
    }
    route_end = {owner: route[-1] for owner, route in topology.routes.items()}
    sink_keys, registry = config.sink_keys, config.registry
    corruption: Dict[int, List[int]] = {}
    for hook in config.corruption:
        corruption.setdefault(hook.frame_index, []).append(hook.bit_index)
    # numbers batches in send order: it breaks ties between one sink's events
    # of one tick, and ends every comparison before the bytes
    ordinals = itertools.count()
    # per hub of one group, its encoded records of one tick
    batches: List[List[bytes]] = []

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
    per_sink = report.per_sink

    # each event queues its followers for later ticks (periods and latency
    # are at least 1), so popping in heap order runs each tick's stages in
    # order and the cohorts of one group on one tick pop back to back; every
    # event but a last sense or a receive replaces itself at the heap's top
    while events:
        event = events[0]
        stage = event[1]
        if stage == SENSE:
            tick, _, first_hub, period, cohort, hub_ids, cuts = event
            if tick + period <= duration:
                heapq.heapreplace(events, (
                    tick + period, SENSE, first_hub, period, cohort, hub_ids, cuts,
                ))
            else:
                heapq.heappop(events)
            records = cohort(tick)
            if batches:  # another cohort of this group fired on this tick
                for batch, cut in zip(batches, cuts):
                    batch += records[cut]
            else:
                batches = [records[cut] for cut in cuts]
            # the batches wait for this group's other cohorts of this tick,
            # which pop next; the stage needs no check, since the third field
            # of a transmit or a receive is a sink and node ids are unique
            # across roles
            if events and events[0][0] == tick and events[0][2] == first_hub:
                continue
            for hub_id, batch in zip(hub_ids, batches):
                if not batch:
                    continue
                report.readings_sensed += len(batch)
                # cohorts arrive by period, not id.  A sensor has one hub and
                # fires at most once a tick, so the node ids, each record's
                # first two bytes, big-endian, are unique: byte order is
                # _NODE_THEN_TIME order, and the batch is `aggregate`'s
                batch.sort()
                payload = _COUNT.pack(len(batch)) + b"".join(batch)
                heapq.heappush(events, (
                    tick + transit[hub_id], TRANSMIT, route_end[hub_id],
                    next(ordinals), payload,
                ))
            batches = []
        elif stage == TRANSMIT:
            tick, _, sink_id, ordinal, payload = event
            stats = per_sink[sink_id]
            # a sink's frame count is its next sequence number, and the
            # run's frame count the next frame's corruption index
            frame = sink_transmit(
                sink_id, payload, stats.frames_sent, sink_keys[sink_id]
            )
            encoded = encode_frame(frame)
            for bit in corruption.get(report.frames_sent, ()):
                if bit < 8 * len(encoded):
                    encoded = _flip_bit(encoded, bit)
            report.frames_sent += 1
            stats.frames_sent += 1
            heapq.heapreplace(events, (
                tick + transit[sink_id], RECEIVE, sink_id, ordinal, encoded, payload,
            ))
        else:
            _, _, origin_sink, _, encoded, payload = heapq.heappop(events)
            stats = per_sink[origin_sink]
            report.frames_delivered += 1
            stats.frames_delivered += 1
            try:
                frame_sink, plaintext = _open_frame(encoded, registry)
                count = _parse_batch(frame_sink, plaintext)
            except DecodeError as exc:
                kind = exc.kind
                report.frames_rejected[kind] = (
                    report.frames_rejected.get(kind, 0) + 1
                )
                stats.frames_rejected += 1
                report.fidelity_ok = False
            else:
                if plaintext != payload:
                    report.fidelity_ok = False
                report.readings_recovered += count
                stats.readings_recovered += count

    return report


# -- config / report JSON ----------------------------------------------------

CONFIG_FIELDS = (
    "nodes",
    "edges",
    "routes",
    "keys",
    "seed",
    "duration_ticks",
    "sense_period_ticks",
    "hop_latency_ticks",
)


def config_from_dict(doc: dict) -> SimConfig:
    """Build a SimConfig from a parsed JSON document.

    Required fields: `nodes` (list of {id, role, kind?, sense_period_ticks?}),
    `edges` (list of [a, b] pairs), `routes` (map of hub/sink id to node-id
    path), `keys` (map of sink id to lowercase hex key), `seed`,
    `duration_ticks`, `sense_period_ticks`, `hop_latency_ticks`.  Optional:
    `fusion_registry` (map like `keys`, overriding what the fusion center
    knows; defaults to `keys`) and `corruption` (list of {frame, bit}).
    Every number must be a JSON integer; map keys are canonical decimal id
    strings ("0" or no leading zero, sign, space or underscore).
    """
    problems = [f"missing field {f!r}" for f in CONFIG_FIELDS if f not in doc]
    if problems:
        raise InvalidConfigError(problems)
    try:
        nodes = tuple(
            NodeSpec(
                id=_int(n["id"], "node id"),
                role=str(n["role"]),
                kind=(
                    ReadingKind[str(n["kind"]).upper()]
                    if "kind" in n
                    else None
                ),
                sense_period_ticks=(
                    _int(n["sense_period_ticks"], "sense_period_ticks")
                    if "sense_period_ticks" in n
                    else None
                ),
            )
            for n in doc["nodes"]
        )
        edges = tuple(
            (_int(a, "edge end"), _int(b, "edge end")) for a, b in doc["edges"]
        )
        routes = {
            _id_key(owner, "routes"): tuple(_int(x, "route node") for x in path)
            for owner, path in _object(doc, "routes").items()
        }
        sink_keys = _keys(doc, "keys")
        registry = (
            _keys(doc, "fusion_registry")
            if "fusion_registry" in doc
            else dict(sink_keys)
        )
        corruption = tuple(
            FrameCorruption(
                frame_index=_int(c["frame"], "corruption frame"),
                bit_index=_int(c["bit"], "corruption bit"),
            )
            for c in doc.get("corruption", ())
        )
        seed = _int(doc["seed"], "seed")
        duration = _int(doc["duration_ticks"], "duration_ticks")
        period = _int(doc["sense_period_ticks"], "sense_period_ticks")
        latency = _int(doc["hop_latency_ticks"], "hop_latency_ticks")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError([f"malformed config: {exc}"]) from exc
    return SimConfig(
        topology=Topology(nodes=nodes, edges=edges, routes=routes),
        sink_keys=sink_keys,
        registry=registry,
        seed=seed,
        duration_ticks=duration,
        sense_period_ticks=period,
        hop_latency_ticks=latency,
        corruption=corruption,
    )


def _int(value, what: str) -> int:
    # bool is an int subclass, so compare the exact type
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _id_key(key: str, name: str) -> int:
    # int() would also take "030", "+30", "3_0" and " 30", so two spellings
    # of one id could collide in a map and the last would silently win
    if not re.fullmatch(r"0|[1-9][0-9]*", key):
        raise ValueError(f"{name!r} key {key!r} is not a canonical decimal id")
    return int(key)


def _object(doc: dict, name: str) -> dict:
    if not isinstance(doc[name], dict):
        raise TypeError(f"{name!r} must be a JSON object")
    return doc[name]


def _keys(doc: dict, name: str) -> Dict[int, bytes]:
    return {
        _id_key(owner, name): bytes.fromhex(hexkey)
        for owner, hexkey in _object(doc, name).items()
    }


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    # json.load alone keeps the last of two equal keys, so a repeated sink
    # id in "keys", "routes" or "fusion_registry" would pass unnoticed
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise InvalidConfigError([f"config repeats the key {name!r}"])
            seen.add(name)
    return obj


def load_config(path: str) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InvalidConfigError([f"cannot read config: {exc}"]) from exc
    except InvalidConfigError:  # from _unique_keys, already worded
        raise
    except UnicodeDecodeError as exc:
        raise InvalidConfigError([f"config is not UTF-8: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigError([f"config is not valid JSON: {exc}"]) from exc
    except (RecursionError, ValueError) as exc:
        # json.load's nesting depth and integer-digit limits
        raise InvalidConfigError(
            [f"config exceeds a JSON parser limit: {exc}"]
        ) from exc
    if not isinstance(doc, dict):
        raise InvalidConfigError(["config root must be a JSON object"])
    return config_from_dict(doc)


def report_to_dict(report: SimReport) -> dict:
    """JSON-ready view of a report; sink ids become string keys."""
    doc = asdict(report)
    doc["frames_rejected"] = dict(sorted(report.frames_rejected.items()))
    per_sink = doc["per_sink"]
    doc["per_sink"] = {str(sink): per_sink[sink] for sink in sorted(per_sink)}
    return doc
