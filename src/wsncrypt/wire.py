"""Binary framing for encrypted telemetry and the reading batch payload.

Frame layout (all integers big-endian):

    offset 0   magic           0xA5 0x5A
    offset 2   version         0x01
    offset 3   sink_id         u16
    offset 5   sequence        u32
    offset 9   payload_length  u16
    offset 11  payload         payload_length bytes
    last byte  checksum        XOR of every preceding byte

A frame in memory is a `Frame`, an immutable named tuple `(sink_id,
sequence, payload)`; the checksum exists only on the wire.

Reading record layout: node_id (u16) | timestamp (u32) | kind (u8) |
value_length (u8) | value bytes.  A batch is a u16 record count followed by
that many records.  A decoded record is a `SensorReading`, an immutable
named tuple `(node_id, timestamp, kind, value)`: it unpacks, orders,
compares and hashes as that plain tuple, and equals one.

Each fixed layout is one `struct.Struct`, built from a table of field names
and codes, which defines and range-checks every field: the encoders turn its
`struct.error` into a `ValueError` that names the field and its width, so a
value the layout cannot hold is refused, never truncated or wrapped.

The checksum is a one-byte XOR fold: it detects every single-bit flip, but
anyone who changes bytes on purpose can recompute it, so it protects against
no attacker.  Frame headers are never encrypted; the receiver must read
sink_id to pick the decryption key before it can touch the payload.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import List, NamedTuple, Sequence

from .cipher import _as_bytes

MAGIC = b"\xa5\x5a"
VERSION = 1
_HEADER_FIELDS = {
    "magic": "2s",
    "version": "B",
    "sink_id": "H",
    "sequence": "I",
    "payload_length": "H",
}
_HEADER = struct.Struct(">" + "".join(_HEADER_FIELDS.values()))
HEADER_LEN = _HEADER.size
CHECKSUM_LEN = 1  # the xor_fold byte after the payload
MAX_PAYLOAD = 0xFFFF


class WireError(ValueError):
    kind = "wire_error"


class PayloadTooLargeError(WireError):
    kind = "payload_too_large"


class TooManyReadingsError(WireError):
    kind = "too_many_readings"


class DecodeError(WireError):
    """Base for every reason a received frame is rejected; `kind` names the
    rejection bucket."""


class BadMagicError(DecodeError):
    kind = "bad_magic"


class UnsupportedVersionError(DecodeError):
    kind = "unsupported_version"


class TruncatedError(DecodeError):
    kind = "truncated"


class TrailingBytesError(DecodeError):
    kind = "trailing_bytes"


class ChecksumMismatchError(DecodeError):
    kind = "checksum_mismatch"


class BadKindError(DecodeError):
    kind = "bad_kind"


class ReadingKind(IntEnum):
    SCALAR = 0
    AUDIO = 1
    VIDEO = 2


# a tuple, not a set: membership of an unhashable kind is False, not TypeError
_KINDS = tuple(ReadingKind)
# indexed by kind byte: its ReadingKind, or None for an undefined code
_KIND_OF_BYTE = _KINDS + (None,) * (256 - len(_KINDS))

# one reading record's fixed part
_RECORD_FIELDS = {"node_id": "H", "timestamp": "I", "kind": "B", "value_length": "B"}
_RECORD = struct.Struct(">" + "".join(_RECORD_FIELDS.values()))
RECORD_HEADER_LEN = _RECORD.size
_COUNT = struct.Struct(">H")
COUNT_LEN = _COUNT.size


class SensorReading(NamedTuple):
    """One sensed parameter: an immutable (node_id, timestamp, kind, value)
    tuple, so ordering is (node_id, timestamp, ...)."""

    node_id: int
    timestamp: int
    kind: ReadingKind
    value: bytes


class Frame(NamedTuple):
    """Sink-to-receiver wire unit: an immutable (sink_id, sequence, payload)
    tuple.  The checksum only exists on the wire: encoding computes it fresh
    and decoding verifies it."""

    sink_id: int
    sequence: int
    payload: bytes = b""


# xor_fold's passes: _FOLDS holds (shift, mask) for halves of 2**k bytes, k
# from _FOLD_MAX_K down to 0, and _FOLD_PASSES[b] its last b passes, the
# ones that fold up to 2**b lanes.  Wider masks would serve only frames
# longer than 2 KiB, which are first halved to that size with masks built
# as they go.
_FOLD_MAX_K = 10
_FOLD_TABLE_LANES = 2 << _FOLD_MAX_K
_FOLDS = tuple((8 << k, (1 << (8 << k)) - 1) for k in range(_FOLD_MAX_K, -1, -1))
_FOLD_PASSES = tuple(_FOLDS[len(_FOLDS) - b :] for b in range(len(_FOLDS) + 1))

# each byte value as a one-byte bytes, the checksum encode_frame appends
_BYTE = tuple(bytes((b,)) for b in range(256))


def xor_fold(data: bytes) -> int:
    """One-byte XOR of all input bytes."""
    if type(data) is not bytes:  # a memoryview's len() counts items, not bytes
        data = _as_bytes(data)
    # XOR the top half of the byte lanes onto the bottom half until one lane
    # is left: each pass keeps the XOR of all lanes, in log2(len) big-int ops
    acc = int.from_bytes(data, "big")
    lanes = len(data)
    while lanes > _FOLD_TABLE_LANES:
        lanes = (lanes + 1) // 2
        shift = 8 * lanes
        acc = (acc >> shift) ^ (acc & ((1 << shift) - 1))
    for shift, mask in _FOLD_PASSES[(lanes - 1).bit_length()]:
        acc = (acc >> shift) ^ (acc & mask)
    return acc


def _misfit(fields: dict, values: Sequence) -> str:
    """Name the first field whose struct code cannot hold its value, with the
    field's width and struct's reason.

    The value itself is never formatted: an int past the interpreter's
    int-to-str digit limit would turn the message into that error.
    """
    for (name, code), value in zip(fields.items(), values):
        try:
            struct.pack(">" + code, value)
        except struct.error as exc:
            return f"{name} is a u{8 * struct.calcsize(code)} field: {exc}"
    raise AssertionError("struct refused a layout whose every field fits")


def _bytes_like(what: str, value: object) -> bytes:
    """A bytes-like value as `cipher._as_bytes` gives it, so that its len()
    counts bytes (a memoryview's counts items), else a ValueError that names
    its type; the value itself is never formatted, as for `_misfit`."""
    try:
        return _as_bytes(value)
    except TypeError:
        raise ValueError(f"{what} ({type(value).__name__}) is not bytes-like") from None


def encode_frame(frame: Frame) -> bytes:
    sink_id, sequence, payload = frame
    if type(payload) is not bytes:
        payload = _bytes_like("frame payload", payload)
    size = len(payload)
    if size > MAX_PAYLOAD:
        raise PayloadTooLargeError(
            f"payload of {size} bytes exceeds {MAX_PAYLOAD}"
        )
    try:
        header = _HEADER.pack(MAGIC, VERSION, sink_id, sequence, size)
    except struct.error:
        fields = (MAGIC, VERSION, sink_id, sequence, size)
        raise ValueError(
            f"frame header does not fit: {_misfit(_HEADER_FIELDS, fields)}"
        ) from None
    body = header + payload
    return body + _BYTE[xor_fold(body)]


def decode_frame(data: bytes) -> Frame:
    """Parse and validate one frame; the input must be exactly one frame.

    Raises a distinct DecodeError subclass per failure so receivers can
    count rejections by kind.
    """
    if type(data) is not bytes:  # a memoryview's len() counts items, not bytes
        data = _as_bytes(data)
    size = len(data)
    if size < HEADER_LEN + CHECKSUM_LEN:
        raise TruncatedError(f"{size} bytes is shorter than any frame")
    magic, version, sink_id, sequence, payload_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic.hex()}")
    if version != VERSION:
        raise UnsupportedVersionError(f"version {version} not supported")
    expected = HEADER_LEN + payload_len + CHECKSUM_LEN
    if size < expected:
        raise TruncatedError(
            f"frame declares {payload_len} payload bytes but only "
            f"{size} total bytes arrived"
        )
    if size > expected:
        raise TrailingBytesError(f"{size - expected} bytes after frame")
    # the fold of the whole frame is the sent checksum XOR the computed one
    fold = xor_fold(data)
    if fold:
        raise ChecksumMismatchError(
            f"checksum {data[-1]:#04x} != computed {fold ^ data[-1]:#04x}"
        )
    return Frame(sink_id, sequence, data[HEADER_LEN : HEADER_LEN + payload_len])


def encode_readings(readings: Sequence[SensorReading]) -> bytes:
    try:
        parts = [_COUNT.pack(len(readings))]
    except struct.error:
        raise TooManyReadingsError(
            f"{len(readings)} readings exceed the u16 batch count"
        ) from None
    append, pack, kinds = parts.append, _RECORD.pack, _KINDS
    for node_id, timestamp, kind, value in readings:
        if kind not in kinds:
            raise ValueError(
                f"reading kind ({type(kind).__name__}) is not a ReadingKind"
            )
        if type(value) is not bytes:
            value = _bytes_like("reading value", value)
        try:
            append(pack(node_id, timestamp, kind, len(value)))
        except struct.error:
            record = (node_id, timestamp, kind, len(value))
            raise ValueError(
                f"reading does not fit its record: {_misfit(_RECORD_FIELDS, record)}"
            ) from None
        append(value)
    return b"".join(parts)


def _count_readings(data: bytes) -> int:
    """The record count of a batch, once every record has been checked.

    This walk is the one statement of the batch rules: the count field is
    present, each record's header fits, its kind byte is defined and its
    value fits, in that order, and no byte follows the last record.  It
    builds no reading.
    """
    end = len(data)
    if end < COUNT_LEN:
        raise TruncatedError("batch shorter than its count field")
    (count,) = _COUNT.unpack_from(data)
    unpack_from, kinds = _RECORD.unpack_from, _KIND_OF_BYTE
    size = RECORD_HEADER_LEN
    last_header = end - size  # the last offset a record header fits at
    pos = COUNT_LEN
    for _ in range(count):
        if pos > last_header:
            raise TruncatedError("record header runs past end of batch")
        _, _, kind_code, value_len = unpack_from(data, pos)
        if kinds[kind_code] is None:
            raise BadKindError(f"kind byte {kind_code} is not defined")
        pos += size + value_len
        if pos > end:
            raise TruncatedError("record value runs past end of batch")
    if pos != end:
        raise TrailingBytesError(f"{end - pos} bytes after batch")
    return count


def _build_readings(data: bytes, count: int) -> List[SensorReading]:
    """The first `count` readings of a batch that `_count_readings` has
    passed with that count; it checks nothing itself."""
    readings: List[SensorReading] = []
    # the per-record loop reads only locals
    append, unpack_from, kinds = readings.append, _RECORD.unpack_from, _KIND_OF_BYTE
    new, reading = tuple.__new__, SensorReading  # as SensorReading(...), faster
    size = RECORD_HEADER_LEN
    pos = COUNT_LEN
    for _ in range(count):
        node_id, timestamp, kind_code, value_len = unpack_from(data, pos)
        pos += size
        value_end = pos + value_len
        append(new(reading, (node_id, timestamp, kinds[kind_code], data[pos:value_end])))
        pos = value_end
    return readings


def decode_readings(data: bytes) -> List[SensorReading]:
    """Inverse of `encode_readings`; rejects trailing garbage."""
    if type(data) is not bytes:  # a memoryview's len() counts items, not bytes
        data = _as_bytes(data)
    return _build_readings(data, _count_readings(data))
