"""Binary framing for encrypted telemetry and the reading batch payload.

Frame layout (all integers big-endian):

    offset 0   magic           0xA5 0x5A
    offset 2   version         0x01
    offset 3   sink_id         u16
    offset 5   sequence        u32
    offset 9   payload_length  u16
    offset 11  payload         payload_length bytes
    last byte  checksum        XOR of every preceding byte

Reading record layout: node_id (u16) | timestamp (u32) | kind (u8) |
value_length (u8) | value bytes.  A batch is a u16 record count followed by
that many records.  A decoded record is a `SensorReading`, an immutable
named tuple `(node_id, timestamp, kind, value)`: it unpacks, orders,
compares and hashes as that plain tuple, and equals one.

The checksum is a one-byte XOR fold: weak as checksums go, but it detects
every single-bit flip, which is all the delivery pipeline needs.  Frame
headers are never encrypted; the receiver must read sink_id to pick the
decryption key before it can touch the payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, NamedTuple, Sequence

MAGIC = b"\xa5\x5a"
VERSION = 1
# magic, version, sink_id, sequence, payload_length
_HEADER = struct.Struct(">2sBHIH")
HEADER_LEN = _HEADER.size
MAX_PAYLOAD = 0xFFFF
MAX_READINGS = 0xFFFF
MAX_VALUE_LEN = 0xFF


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


# a tuple, not a set: membership of an unhashable kind is False, not TypeError;
# kind codes run 0, 1, 2, so a code in range is also its index here
_KINDS = tuple(ReadingKind)

# one reading record's fixed part: node_id, timestamp, kind, value_length
_RECORD = struct.Struct(">HIBB")
_COUNT = struct.Struct(">H")


class SensorReading(NamedTuple):
    """One sensed parameter: an immutable (node_id, timestamp, kind, value)
    tuple, so ordering is (node_id, timestamp, ...)."""

    node_id: int
    timestamp: int
    kind: ReadingKind
    value: bytes


@dataclass(frozen=True)
class Frame:
    """Sink-to-receiver wire unit.  The checksum only exists on the wire:
    encoding computes it fresh and decoding verifies it."""

    sink_id: int
    sequence: int
    payload: bytes = field(default=b"")


def xor_fold(data: bytes) -> int:
    """One-byte XOR of all input bytes."""
    # XOR the top half of the byte lanes onto the bottom half until one lane
    # is left: each pass keeps the XOR of all lanes, in log2(len) big-int ops
    acc = int.from_bytes(data, "big")
    lanes = len(data)
    while lanes > 1:
        lanes = (lanes + 1) // 2
        shift = 8 * lanes
        acc = (acc >> shift) ^ (acc & ((1 << shift) - 1))
    return acc


def encode_frame(frame: Frame) -> bytes:
    if not 0 <= frame.sink_id <= 0xFFFF:
        raise ValueError(f"sink_id {frame.sink_id} does not fit u16")
    if not 0 <= frame.sequence <= 0xFFFFFFFF:
        raise ValueError(f"sequence {frame.sequence} does not fit u32")
    if len(frame.payload) > MAX_PAYLOAD:
        raise PayloadTooLargeError(
            f"payload of {len(frame.payload)} bytes exceeds {MAX_PAYLOAD}"
        )
    body = (
        _HEADER.pack(
            MAGIC, VERSION, frame.sink_id, frame.sequence, len(frame.payload)
        )
        + frame.payload
    )
    return body + bytes([xor_fold(body)])


def decode_frame(data: bytes) -> Frame:
    """Parse and validate one frame; the input must be exactly one frame.

    Raises a distinct DecodeError subclass per failure so receivers can
    count rejections by kind.
    """
    if len(data) < HEADER_LEN + 1:
        raise TruncatedError(f"{len(data)} bytes is shorter than any frame")
    magic, version, sink_id, sequence, payload_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic.hex()}")
    if version != VERSION:
        raise UnsupportedVersionError(f"version {version} not supported")
    expected = HEADER_LEN + payload_len + 1
    if len(data) < expected:
        raise TruncatedError(
            f"frame declares {payload_len} payload bytes but only "
            f"{len(data)} total bytes arrived"
        )
    if len(data) > expected:
        raise TrailingBytesError(f"{len(data) - expected} bytes after frame")
    if xor_fold(data[:-1]) != data[-1]:
        raise ChecksumMismatchError(
            f"checksum {data[-1]:#04x} != computed {xor_fold(data[:-1]):#04x}"
        )
    payload = data[HEADER_LEN : HEADER_LEN + payload_len]
    return Frame(sink_id=sink_id, sequence=sequence, payload=payload)


def _check_reading(reading: SensorReading) -> None:
    if not 0 <= reading.node_id <= 0xFFFF:
        raise ValueError(f"node_id {reading.node_id} does not fit u16")
    if not 0 <= reading.timestamp <= 0xFFFFFFFF:
        raise ValueError(f"timestamp {reading.timestamp} does not fit u32")
    if reading.kind not in _KINDS:
        raise ValueError(f"unknown reading kind {reading.kind!r}")
    if len(reading.value) > MAX_VALUE_LEN:
        raise ValueError(f"value of {len(reading.value)} bytes exceeds 255")


def encode_readings(readings: Sequence[SensorReading]) -> bytes:
    if len(readings) > MAX_READINGS:
        raise TooManyReadingsError(
            f"{len(readings)} readings exceed the u16 batch count"
        )
    out = bytearray(_COUNT.pack(len(readings)))
    pack = _RECORD.pack
    for reading in readings:
        _check_reading(reading)
        node_id, timestamp, kind, value = reading
        out += pack(node_id, timestamp, int(kind), len(value))
        out += value
    return bytes(out)


def decode_readings(data: bytes) -> List[SensorReading]:
    """Inverse of `encode_readings`; rejects trailing garbage."""
    if len(data) < 2:
        raise TruncatedError("batch shorter than its count field")
    (count,) = _COUNT.unpack_from(data)
    end = len(data)
    pos = 2
    readings = []
    unpack_from = _RECORD.unpack_from
    for _ in range(count):
        if end - pos < _RECORD.size:
            raise TruncatedError("record header runs past end of batch")
        node_id, timestamp, kind_code, value_len = unpack_from(data, pos)
        pos += _RECORD.size
        if kind_code >= len(_KINDS):
            raise BadKindError(f"kind byte {kind_code} is not defined")
        value_end = pos + value_len
        if value_end > end:
            raise TruncatedError("record value runs past end of batch")
        readings.append(
            SensorReading(node_id, timestamp, _KINDS[kind_code], data[pos:value_end])
        )
        pos = value_end
    if pos != end:
        raise TrailingBytesError(f"{end - pos} bytes after batch")
    return readings
