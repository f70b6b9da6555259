"""Deterministic discrete-event simulation of the telemetry pipeline.

Sensors fire on fixed periods and hand readings to their hub; each hub
sends one aggregated batch every tick it received anything; the batch is
relayed hop by hop to the hub's sink; the sink encrypts it, wraps it in a
frame, and relays the frame to the fusion center, which looks up the key
for the sending sink, decrypts, checks and counts the batch's records, and
tallies the result.  Intermediate nodes forward bytes untouched and never
decrypt.

Each cohort (below) fires on the multiples of its period, taken over all
cohorts in the order tick, then hub group.  Hubs' batches wait in one outbox
heap, keyed (tick it reaches its sink, sink, send order); the run sends
every batch due before a firing tick ahead of that tick's firings, and the
rest after the last.  A frame reaches the fusion center in the step that
sends it: every reported fact is a sum or an AND, and its sequence number
and corruption are fixed then.  Each frame is counted once, by its sink;
the run's totals are the sinks' sums, taken after the last frame.  Idle
ticks are never visited, so a run costs time in proportion to its readings
and frames, not to its ticks.

Hubs are cut into hub groups: runs of consecutive hubs, in id order, with
at most _GROUP_SENSORS sensors in all (a larger hub is a group alone).  A
cohort is the sensors of one group that share a period.  Each of their value
words has its own 128-bit lane of one integer, so `rng.mix64_lanes` derives
every value of a firing in a few whole-integer operations, and a group pays
a firing's fixed cost once for all its hubs.  A firing yields each sensor's
record header and value in turn, byte for byte `sense`'s reading as
`encode_readings` writes it; no reading is built.  A cohort lists each
hub's sensors in id order, so each hub of the group, in id order, sends the
count of its span of the firing and one join of that span as its batch,
byte for byte what `aggregate` gives.  Only on a tick where two cohorts of
one group fire does each hub sort its records after the last firing (a
record starts with its node id, big-endian, so byte order is node id
order).  The fusion center decrypts every frame it accepts and checks and
counts every record of its batch, without building the readings (only
`fusion_receive` builds them), and the run checks the decrypted batch
against the bytes its hub sent.

The whole run is a pure function of SimConfig: sensor values come from the
seeded mixer in `wsncrypt.rng` and the event order is total, so two runs of
one config are bit-identical.  The only way to lose data is the explicit
corruption hook (flip one bit of one frame), which exists to exercise the
rejection accounting at the fusion center.

The stages (`sense`, `aggregate`, `relay`, `sink_transmit`) assume a
validated config: building a SimConfig checks every node, role, edge and
route once, so the stages re-check none of it.  The run calls none of
them.  It takes a batch's ticks in transit from its hub route's hop count,
as `relay`'s last entry would give them.  It keys each sink's `encryptor`
and the fusion center's `decryptor` per sink once, before the first
firing, and seals each frame as `sink_transmit` would.

Configs load from JSON; see `config_from_dict` for the exact field names.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import operator
import re
import struct
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

from . import rng
from .cipher import MAX_KEY_BYTES, decryptor, encrypt, encryptor
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


class FrameCorruption(NamedTuple):
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
    """Sensing for a cohort: returns `at(tick)`, whose parts alternate each
    sensor's record header and value, in `sensors` order; joined, a
    sensor's two parts are its `sense(n, k, tick, seed)` encoded as its
    batch record, for ticks 1..0xFFFFFFFF.

    Every value word of every sensor gets its own 128-bit lane of one
    integer, so a firing runs `sense`'s two mixes over all the words at once
    (`rng.mix64_lanes`) and makes one `to_bytes`.  The record headers are
    one more integer, which takes the tick into every timestamp field in one
    multiply-add, and one `struct.Struct` cuts every header and every value
    out of the two byte strings; two slice assignments put them in turn.
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

    def at(tick: int) -> List[bytes]:
        # each lane's stream seed, then its derive_bytes word
        x = rng.mix64_lanes(base + tick * ones, mask) ^ seeds
        x = rng.mix64_lanes(x + golden, mask)
        # big-endian, each lane's empty high half comes first: drop them
        stream = memoryview(x.to_bytes(size, "big")).cast("Q")[1::2].tobytes()
        # a u32 tick carries into no other field of a header
        head = (headers + tick * timestamps).to_bytes(head_size, "big")
        cut = parts(head + stream)
        # each sensor's header, then its value
        in_turn = [b""] * (2 * count)
        in_turn[::2] = cut[:count]
        in_turn[1::2] = cut[count:]
        return in_turn

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
    DecodeAfterDecryptError); callers count those as rejections.
    `run_simulation` calls every step but the last (`_receive`), so that it
    can compare the plaintext with the batch its hub sent; only here are
    the readings built.
    """

    def opener(sink_id: int):
        key = registry.get(sink_id)
        return None if key is None else decryptor(key)

    return _build_readings(*_receive(frame_bytes, opener))


def _receive(frame_bytes: bytes, opener: Callable) -> Tuple[bytes, int]:
    """`fusion_receive` short of the readings: the frame's decrypted payload
    and its record count, once every record has been checked.  `opener`
    gives a sink's `decryptor`, or None for a sink without a key."""
    frame = decode_frame(frame_bytes)
    open_payload = opener(frame.sink_id)
    if open_payload is None:
        raise UnknownSinkError(f"no key registered for sink {frame.sink_id}")
    plaintext = open_payload(frame.payload)
    try:
        return plaintext, _count_readings(plaintext)
    except WireError as exc:
        raise DecodeAfterDecryptError(
            f"payload from sink {frame.sink_id} decrypted but failed to"
            f" parse: {exc}"
        ) from exc


def _validate_config(config: SimConfig) -> List[str]:
    topology = config.topology
    problems = validate_topology(topology)
    if not problems:
        # each hub's batch when every adjacent sensor fires in one tick
        batches = {
            hub_id: COUNT_LEN + sum(
                RECORD_HEADER_LEN + VALUE_LENGTHS[sensor.kind] for sensor in sensors
            )
            for hub_id, sensors in topology.hub_sensors().items()
        }
        for hub_id, size in batches.items():
            if size > MAX_PAYLOAD:
                problems.append(
                    f"hub {hub_id} worst-case batch of {size} bytes exceeds"
                    f" {MAX_PAYLOAD}"
                )
        # a frame is a header, one hub batch (encrypted, same length), a checksum
        frame_bits = 8 * (HEADER_LEN + max(batches.values(), default=0) + CHECKSUM_LEN)
        for i, hook in enumerate(config.corruption):
            if hook.bit_index >= frame_bits:
                problems.append(
                    f"corruption[{i}].bit must be below the longest possible"
                    f" frame ({frame_bits} bits), got {hook.bit_index}"
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
    # once per sink: the registry defaults to a copy of the sinks' keys
    for owner in dict.fromkeys(
        owner
        for owner, key in [*config.sink_keys.items(), *config.registry.items()]
        if not 1 <= len(key) <= MAX_KEY_BYTES
    ):
        problems.append(f"key for sink {owner} must be 1..{MAX_KEY_BYTES} bytes")
    for i, hook in enumerate(config.corruption):
        for name, index in (("frame", hook.frame_index), ("bit", hook.bit_index)):
            if index < 0:
                problems.append(
                    f"corruption[{i}].{name} must be non-negative, got {index}"
                )
    return problems


def _flip_bit(data: bytes, bit_index: int) -> bytes:
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (7 - bit_index % 8)
    return bytes(out)


# The most sensors in a hub group.  A firing costs ~4.5 us fixed plus ~0.5 us
# per sensor, so at 256 the fixed part is ~4%, and its lane integers stay
# under 16 KB.  Unbounded groups (2.2 MB integers) ran the 60,301-node ladder
# rung 6-20% slower.  In process, sim-wide ran 1.04x at 256 against 64, and
# 1,024 gained nothing on the 17,153- and 60,301-node rungs.
_GROUP_SENSORS = 256


def run_simulation(config: SimConfig) -> SimReport:
    """Run the full pipeline to quiescence and account for every frame.

    The config was validated when it was built.  Sensing stops after
    `duration_ticks`; the batches still in the outbox are sent afterwards,
    so nothing is cut off mid-route, and the fusion center takes each frame
    as it is sent.  `fidelity_ok` is true iff no frame was rejected and
    every delivered frame decrypted to exactly the batch its hub sent,
    checked frame by frame.  The codec is canonical, so for a frame that
    parses this holds exactly when its readings are the ones its hub sensed.
    """
    topology = config.topology
    duration = config.duration_ticks
    # hub groups: runs of consecutive hubs, in id order, with at most
    # _GROUP_SENSORS sensors in all; a larger hub is a group alone
    groups: List[List[int]] = []
    size = 0
    hub_sensors = topology.hub_sensors()
    for hub_id in sorted(hub_sensors):
        count = len(hub_sensors[hub_id])
        if not groups or size + count > _GROUP_SENSORS:
            groups.append([])
            size = 0
        groups[-1].append(hub_id)
        size += count
    # a cohort is the sensors of one group that share a period, in (hub, id)
    # order.  Per cohort, its firings: ((tick, first hub), (cohort, its
    # sensor count, spans)) for each multiple of its period up to `duration`
    routes, latency = topology.routes, config.hop_latency_ticks
    firings = []
    for group in groups:
        # per period, from each hub with sensors of that period to those
        # sensors; hubs and sensors in id order
        by_period = defaultdict(lambda: defaultdict(list))
        for hub_id in group:
            for node in hub_sensors[hub_id]:
                period = node.sense_period_ticks or config.sense_period_ticks
                by_period[period][hub_id].append((node.id, node.kind))
        for period, per_hub in by_period.items():
            # per hub in the cohort: the hub, the ticks from it to its sink
            # (`relay`'s last entry), that sink, the slice of the firing's
            # parts that are its records, and its batch's count field;
            # routes never change
            sensors: List[Tuple[int, ReadingKind]] = []
            spans = []
            for hub_id, members in per_hub.items():
                route = routes[hub_id]
                spans.append((
                    hub_id, (len(route) - 1) * latency, route[-1],
                    slice(2 * len(sensors), 2 * (len(sensors) + len(members))),
                    _COUNT.pack(len(members)),
                ))
                sensors += members
            cohort = _cohort_sensor(sensors, config.seed)
            ticks = range(period, duration + 1, period)
            firing = itertools.repeat((cohort, len(sensors), tuple(spans)))
            firings.append(zip(zip(ticks, itertools.repeat(group[0])), firing))
    # each sink's cipher and the fusion center's, keyed once for the run
    seals = {sink: encryptor(key) for sink, key in config.sink_keys.items()}
    opener = {sink: decryptor(key) for sink, key in config.registry.items()}.get
    corruption: Dict[int, List[int]] = {}
    for hook in config.corruption:
        corruption.setdefault(hook.frame_index, []).append(hook.bit_index)
    frame_indices = itertools.count()  # each frame's corruption index, in send order
    # batches bound for sinks, (arrival tick, sink, send ordinal, payload):
    # the ordinal keeps one sink's batches of one tick in the order their
    # hubs put them there, and ends every comparison before the bytes
    outbox: List[Tuple[int, int, int, bytes]] = []
    ordinals = itertools.count()

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

    def send(until: float) -> None:
        """Send every batch in the outbox that reaches its sink before tick
        `until`, and hand its frame to the fusion center."""
        while outbox and outbox[0][0] < until:
            _, sink_id, _, payload = heapq.heappop(outbox)
            stats = per_sink[sink_id]
            # `sink_transmit`, with the sink's cipher keyed once: a sink's
            # frame count is its next sequence number
            encoded = encode_frame(
                (sink_id, stats.frames_sent, seals[sink_id](payload))
            )
            for bit in corruption.get(next(frame_indices), ()):
                if bit < 8 * len(encoded):
                    encoded = _flip_bit(encoded, bit)
            stats.frames_sent += 1
            try:
                plaintext, count = _receive(encoded, opener)
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
                stats.readings_recovered += count

    # a batch reaches its sink a tick after it went into the outbox or later
    # (a route has a hop, latency is at least 1), and sensing never waits on
    # a frame: sending what is due before each firing tick runs each tick's
    # firings, then its frames
    sensed = 0
    when = operator.itemgetter(0)
    for (tick, _), fired in itertools.groupby(heapq.merge(*firings, key=when), when):
        send(tick)
        fired = [firing for _, firing in fired]
        if len(fired) == 1:
            # a cohort lists each hub's sensors in id order, so each span is
            # the hub's records in `aggregate`'s order
            cohort, readings, spans = fired[0]
            parts = cohort(tick)
            sensed += readings
            for _, transit, sink_id, span, count_field in spans:
                payload = count_field + b"".join(parts[span])
                heapq.heappush(
                    outbox, (tick + transit, sink_id, next(ordinals), payload)
                )
            continue
        # two cohorts of the group fired: per hub, its (header, value) pairs
        records: Dict[Tuple[int, int, int], List[Tuple[bytes, bytes]]] = {}
        for cohort, readings, spans in fired:
            parts = cohort(tick)
            sensed += readings
            for hub_id, transit, sink_id, span, _ in spans:
                hub_parts = parts[span]
                records.setdefault((hub_id, transit, sink_id), []).extend(
                    zip(hub_parts[::2], hub_parts[1::2])
                )
        for (_, transit, sink_id), batch in sorted(records.items()):
            # cohorts arrive by period, not id.  A sensor has one hub and
            # fires at most once a tick, so the node ids, each header's
            # first two bytes, big-endian, are unique: byte order is
            # _NODE_THEN_TIME order, and the batch is `aggregate`'s
            batch.sort()
            payload = _COUNT.pack(len(batch)) + b"".join(itertools.chain(*batch))
            heapq.heappush(outbox, (tick + transit, sink_id, next(ordinals), payload))
    send(math.inf)

    # every frame sent is delivered, and the run's totals are its sinks' sums
    sinks = per_sink.values()
    for stats in sinks:
        stats.frames_delivered = stats.frames_sent
    report.readings_sensed = sensed
    report.frames_sent = report.frames_delivered = sum(s.frames_sent for s in sinks)
    report.readings_recovered = sum(s.readings_recovered for s in sinks)
    return report


# -- config / report JSON ----------------------------------------------------

# Each top-level field's shape, checked in this order: `int` is a JSON
# integer (not a float, string or bool), `str` any value (as its str), `bytes`
# a hex string, `ReadingKind` a kind's name in any case, a class in _RECORDS a
# JSON object of its fields and no other, [s] a JSON array of s, (int, int) a
# pair of node ids and {int: s} a JSON object from decimal id to s.
_SHAPES = {
    "nodes": [NodeSpec],
    "edges": [(int, int)],
    "routes": {int: [int]},
    "keys": {int: bytes},
    "fusion_registry": {int: bytes},
    "corruption": [FrameCorruption],
    "seed": int,
    "duration_ticks": int,
    "sense_period_ticks": int,
    "hop_latency_ticks": int,
}
# each record's JSON fields, in the order of its class's fields; a field is
# required unless it is in _OPTIONAL
_RECORDS = {
    NodeSpec: {"id": int, "role": str, "kind": ReadingKind, "sense_period_ticks": int},
    FrameCorruption: {"frame": int, "bit": int},
}
_OPTIONAL = frozenset({"kind", "sense_period_ticks"})
_PLAIN = (int, str)  # leaf shapes that keep a value of exactly their type
_KIND_NAMES = dict(ReadingKind.__members__)  # ReadingKind[name], without a call


def config_from_dict(doc: dict) -> SimConfig:
    """Build a SimConfig from a parsed JSON document with the fields of
    `_SHAPES`; `fusion_registry` (by default `keys`) and `corruption` are
    optional.  Lists every missing or unknown field, or else names the first
    value of the wrong type or shape by its JSON path."""
    problems = [
        f"missing field {f!r}" for f in _SHAPES
        if f not in doc and f not in ("fusion_registry", "corruption")
    ]
    problems += [f"unknown field {f!r}" for f in doc if f not in _SHAPES]
    if problems:
        raise InvalidConfigError(problems)
    try:
        fields = {
            name: _walk(doc[name], shape, None, name)
            for name, shape in _SHAPES.items()
            if name in doc
        }
    except ValueError as bad:  # _Malformed, or an id key past int()'s digit limit
        raise InvalidConfigError([f"malformed config: {bad}"]) from None
    nodes, edges, routes, keys = map(fields.pop, ("nodes", "edges", "routes", "keys"))
    return SimConfig(
        topology=Topology(nodes, edges, routes),
        sink_keys=keys,
        registry=dict(fields.pop("fusion_registry", keys)),
        **fields,  # the rest have SimConfig's names
    )


class _Malformed(ValueError):
    """A config value that does not fit its shape: args are its path, a chain
    of (parent, step) pairs from (None, top-level name), and what is wrong."""

    def __str__(self) -> str:
        (parent, step), what = self.args
        if parent is None:  # only the top-level name, quoted
            return f"{step!r} {what}"
        text = f" {what}"
        while parent is not None:
            # a map's keys are checked to be decimal ids before its values
            # are walked, and no field name is one
            fmt = "[{}]" if type(step) is int else "[{!r}]" if step.isdigit() else ".{}"
            text = fmt.format(step) + text
            parent, step = parent
        return step + text


def _walk(value, shape, path, step):
    """`value`, at `step` below `path`, checked against `shape` and built (an
    array as a tuple, a map as a dict by id, a record as its class), or
    _Malformed for its first value that does not fit.  The shapes come in the
    order of how often a valid config meets them here."""
    if type(shape) is tuple:  # (int, int), the one pair shape
        # only a JSON array: a string or object of 2 items would unpack too
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise _Malformed((path, step), "must be a pair of node ids")
        a, b = value
        if type(a) is int and type(b) is int:
            return a, b
        return _walk(a, int, (path, step), 0), _walk(b, int, (path, step), 1)
    if shape is ReadingKind:
        kind = _KIND_NAMES.get(str(value).upper())
        if kind is None:  # named by its entry, not the field
            valid = ", ".join(_KIND_NAMES).lower()
            what = f"has unknown reading kind {value!r} (valid kinds: {valid})"
            raise _Malformed(path, what)
        return kind
    if shape is int:
        if type(value) is int:  # bool is an int subclass, so the exact type
            return value
        raise _Malformed((path, step), f"must be an integer, got {value!r}")
    here = (path, step)
    if type(shape) is list:
        if not isinstance(value, (list, tuple)):
            raise _Malformed(here, "must be a JSON array")
        inner, paths = itertools.repeat(shape[0]), itertools.repeat(here)
        return tuple(map(_walk, value, inner, paths, itertools.count()))
    if type(shape) is dict:
        if not isinstance(value, dict):
            raise _Malformed(here, "must be a JSON object")
        out = {}
        for key, entry in value.items():
            # int() would also take "030", "+30", "3_0" and " 30", so two
            # spellings of one id could collide and the last would win
            if not (isinstance(key, str) and re.fullmatch(r"0|[1-9][0-9]*", key)):
                raise _Malformed(here, f"key {key!r} is not a canonical decimal id")
            out[int(key)] = _walk(entry, shape[int], here, key)
        return out
    if shape is str:
        return str(value)
    if shape is bytes:
        try:
            return bytes.fromhex(value)
        except (TypeError, ValueError):  # not a str, or not hex digit pairs
            raise _Malformed(here, "must be a hex string") from None
    fields = _RECORDS[shape]
    if not isinstance(value, dict):
        raise _Malformed(here, "must be a JSON object")
    built = []
    for name, inner in fields.items():
        if name in value:
            field = value[name]
            plain = type(field) is inner and inner in _PLAIN
            built.append(field if plain else _walk(field, inner, here, name))
        elif name in _OPTIONAL:
            built.append(None)
        else:
            raise _Malformed(here, f"is missing field {name!r}")
    # a built field is never None, so each None is an absent one
    if len(value) > len(fields) - built.count(None):
        unknown = next(name for name in value if name not in fields)
        raise _Malformed(here, f"has unknown field {unknown!r}")
    return shape(*built)


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
