"""Reference reading-batch codecs: the plain per-record loops that
`wsncrypt.wire.encode_readings` and `decode_readings` replaced.

The property tests require the production codecs to give the same results,
of the same types, or the same exception class with the same message.  The
record layout is restated here; the reading and error types and the
field-naming helper are the module's own, since the outcomes must be
identical down to those.
"""

import struct

from wsncrypt.wire import (
    BadKindError,
    ReadingKind,
    SensorReading,
    TooManyReadingsError,
    TrailingBytesError,
    TruncatedError,
    _misfit,
)

_KINDS = tuple(ReadingKind)
_RECORD_FIELDS = {"node_id": "H", "timestamp": "I", "kind": "B", "value_length": "B"}
_RECORD = struct.Struct(">" + "".join(_RECORD_FIELDS.values()))
_COUNT = struct.Struct(">H")


def ref_encode_readings(readings):
    try:
        out = bytearray(_COUNT.pack(len(readings)))
    except struct.error:
        raise TooManyReadingsError(
            f"{len(readings)} readings exceed the u16 batch count"
        ) from None
    pack = _RECORD.pack
    for node_id, timestamp, kind, value in readings:
        if kind not in _KINDS:
            raise ValueError(
                f"reading kind ({type(kind).__name__}) is not a ReadingKind"
            )
        try:
            memoryview(value)
        except TypeError:
            raise ValueError(
                f"reading value ({type(value).__name__}) is not bytes-like"
            ) from None
        try:
            out += pack(node_id, timestamp, kind, len(value))
        except struct.error:
            record = (node_id, timestamp, kind, len(value))
            raise ValueError(
                f"reading does not fit its record: {_misfit(_RECORD_FIELDS, record)}"
            ) from None
        out += value
    return bytes(out)


def ref_decode_readings(data):
    if len(data) < _COUNT.size:
        raise TruncatedError("batch shorter than its count field")
    (count,) = _COUNT.unpack_from(data)
    end = len(data)
    pos = _COUNT.size
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
