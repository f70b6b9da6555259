import random
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from wire_reference import ref_decode_readings, ref_encode_readings

from wsncrypt.wire import (
    CHECKSUM_LEN,
    HEADER_LEN,
    MAX_PAYLOAD,
    BadKindError,
    BadMagicError,
    ChecksumMismatchError,
    DecodeError,
    Frame,
    PayloadTooLargeError,
    ReadingKind,
    SensorReading,
    TooManyReadingsError,
    TrailingBytesError,
    TruncatedError,
    UnsupportedVersionError,
    _count_readings,
    decode_frame,
    decode_readings,
    encode_frame,
    encode_readings,
    xor_fold,
)

frames = st.builds(
    Frame,
    sink_id=st.integers(0, 0xFFFF),
    sequence=st.integers(0, 0xFFFFFFFF),
    payload=st.binary(max_size=300),
)

readings = st.builds(
    SensorReading,
    node_id=st.integers(0, 0xFFFF),
    timestamp=st.integers(0, 0xFFFFFFFF),
    kind=st.sampled_from(ReadingKind),
    value=st.binary(max_size=40),
)


# -- frames ---------------------------------------------------------------------


def test_empty_payload_frame_layout():
    encoded = encode_frame(Frame(sink_id=1, sequence=0))
    assert len(encoded) == 12
    assert encoded == bytes.fromhex("a55a010001000000000000ff")
    assert encoded[-1] == xor_fold(encoded[:-1])


def test_frame_length_is_header_plus_payload_plus_checksum():
    encoded = encode_frame(Frame(sink_id=9, sequence=7, payload=b"abc"))
    assert len(encoded) == 11 + 3 + 1


@given(frames)
def test_frame_round_trip(frame):
    assert decode_frame(encode_frame(frame)) == frame


def test_frame_contract():
    frame = Frame(1, 2, b"ab")
    assert repr(frame) == "Frame(sink_id=1, sequence=2, payload=b'ab')"
    assert frame == Frame(sink_id=1, sequence=2, payload=b"ab") == (1, 2, b"ab")
    assert Frame(1, 2).payload == b""
    sink_id, sequence, payload = frame
    assert (sink_id, sequence, payload) == (1, 2, b"ab")
    for name in Frame._fields:
        with pytest.raises(AttributeError):
            setattr(frame, name, 0)


def test_sequence_change_touches_only_sequence_and_checksum():
    a = encode_frame(Frame(sink_id=1, sequence=1, payload=b"xy"))
    b = encode_frame(Frame(sink_id=1, sequence=2, payload=b"xy"))
    diff = {i for i in range(len(a)) if a[i] != b[i]}
    assert diff == {8, len(a) - 1}  # last sequence byte and the checksum
    assert diff <= set(range(5, 9)) | {len(a) - 1}


@given(frames, frames)
def test_encoding_is_injective(f1, f2):
    if f1 != f2:
        assert encode_frame(f1) != encode_frame(f2)


def test_payload_too_large():
    with pytest.raises(PayloadTooLargeError):
        encode_frame(Frame(sink_id=0, sequence=0, payload=b"x" * 65536))


def test_frame_field_ranges():
    with pytest.raises(ValueError):
        encode_frame(Frame(sink_id=70000, sequence=0))
    with pytest.raises(ValueError):
        encode_frame(Frame(sink_id=0, sequence=1 << 32))


def test_decode_empty_is_truncated():
    with pytest.raises(TruncatedError):
        decode_frame(b"")


def test_decode_short_is_truncated():
    with pytest.raises(TruncatedError):
        decode_frame(b"\xa5\x5a\x01\x00")


def test_decode_declared_payload_longer_than_data():
    encoded = bytearray(encode_frame(Frame(sink_id=1, sequence=0, payload=b"ab")))
    with pytest.raises(TruncatedError):
        decode_frame(bytes(encoded[:-2]))


def test_decode_bad_magic():
    encoded = bytearray(encode_frame(Frame(sink_id=1, sequence=0)))
    encoded[0] ^= 0xFF
    with pytest.raises(BadMagicError):
        decode_frame(bytes(encoded))


def test_decode_bad_version():
    encoded = bytearray(encode_frame(Frame(sink_id=1, sequence=0)))
    encoded[2] = 2
    with pytest.raises(UnsupportedVersionError):
        decode_frame(bytes(encoded))


def test_decode_checksum_mismatch():
    encoded = bytearray(encode_frame(Frame(sink_id=1, sequence=0, payload=b"hi")))
    encoded[11] ^= 0x01  # payload bit flip
    with pytest.raises(ChecksumMismatchError):
        decode_frame(bytes(encoded))


def test_checksum_mismatch_message():
    # sink 0x0102, sequence 3, no payload: the header folds to 0xfe
    encoded = bytes.fromhex("a55a0101020000000300005a")
    with pytest.raises(ChecksumMismatchError) as caught:
        decode_frame(encoded)
    assert str(caught.value) == "checksum 0x5a != computed 0xfe"
    assert decode_frame(encoded[:-1] + b"\xfe") == Frame(sink_id=0x0102, sequence=3)


def test_decode_trailing_bytes():
    encoded = encode_frame(Frame(sink_id=1, sequence=0, payload=b"hi"))
    with pytest.raises(TrailingBytesError):
        decode_frame(encoded + b"\x00")


def test_every_single_bit_flip_is_rejected():
    encoded = encode_frame(Frame(sink_id=3, sequence=123456, payload=b"payload!"))
    assert len(encoded) <= 64
    for bit in range(8 * len(encoded)):
        mutated = bytearray(encoded)
        mutated[bit // 8] ^= 1 << (7 - bit % 8)
        with pytest.raises(DecodeError):
            decode_frame(bytes(mutated))


# -- readings ------------------------------------------------------------------------


def test_sensor_reading_contract():
    by_keyword = SensorReading(
        node_id=3, timestamp=7, kind=ReadingKind.AUDIO, value=b"\x01\xff"
    )
    by_position = SensorReading(3, 7, ReadingKind.AUDIO, b"\x01\xff")
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert (by_keyword.node_id, by_keyword.timestamp) == (3, 7)
    assert (by_keyword.kind, by_keyword.value) == (ReadingKind.AUDIO, b"\x01\xff")
    with pytest.raises(AttributeError):
        by_keyword.value = b""
    assert repr(by_keyword) == (
        "SensorReading(node_id=3, timestamp=7, "
        "kind=<ReadingKind.AUDIO: 1>, value=b'\\x01\\xff')"
    )
    assert by_keyword != SensorReading(3, 7, ReadingKind.AUDIO, b"\x01")


@given(st.lists(readings, max_size=8))
def test_sensor_readings_sort_by_their_fields_in_order(batch):
    assert sorted(batch) == sorted(
        batch, key=lambda r: (r.node_id, r.timestamp, r.kind, r.value)
    )


# -- reading batches ---------------------------------------------------------------


def test_empty_batch():
    assert encode_readings([]) == b"\x00\x00"
    assert decode_readings(b"\x00\x00") == []


def test_single_reading_layout():
    reading = SensorReading(
        node_id=1, timestamp=0, kind=ReadingKind.SCALAR, value=bytes([42])
    )
    encoded = encode_readings([reading])
    # count, then node_id | timestamp | kind | value_length | value
    assert encoded == bytes.fromhex("0001" + "0001" + "00000000" + "00" + "01" + "2a")
    assert len(encoded) == 2 + 8 + 1


@given(st.lists(readings, max_size=20))
def test_batch_round_trip(batch):
    assert decode_readings(encode_readings(batch)) == batch


def test_bad_kind_rejected():
    encoded = bytearray(
        encode_readings(
            [SensorReading(node_id=1, timestamp=0, kind=ReadingKind.SCALAR,
                           value=b"")]
        )
    )
    encoded[2 + 6] = 7  # kind byte of the first record
    with pytest.raises(BadKindError):
        decode_readings(bytes(encoded))


def test_concatenated_batches_reject_trailing():
    one = encode_readings(
        [SensorReading(node_id=1, timestamp=2, kind=ReadingKind.AUDIO, value=b"x")]
    )
    with pytest.raises(TrailingBytesError):
        decode_readings(one + one)


def test_truncated_batches():
    with pytest.raises(TruncatedError):
        decode_readings(b"")
    with pytest.raises(TruncatedError):
        decode_readings(b"\x00\x01\x00\x01")  # record header cut short
    good = encode_readings(
        [SensorReading(node_id=1, timestamp=0, kind=ReadingKind.VIDEO, value=b"abc")]
    )
    with pytest.raises(TruncatedError):
        decode_readings(good[:-1])  # value cut short


@pytest.mark.parametrize("code", [3, 255])
def test_undefined_kind_bytes_rejected(code):
    record = bytes.fromhex("0001" + "0001" + "00000000") + bytes([code, 0])
    with pytest.raises(BadKindError):
        decode_readings(record)


@pytest.mark.parametrize("cut", range(1, 8))
def test_record_header_cut_short_is_truncated(cut):
    header = bytes.fromhex("0001" + "00000002" + "01" + "00")
    with pytest.raises(TruncatedError):
        decode_readings(b"\x00\x01" + header[:cut])


# -- checksum ------------------------------------------------------------------------


def _xor_fold_by_byte(data):
    acc = 0
    for b in data:
        acc ^= b
    return acc


def items_view(code):
    """A wrapper that views bytes as `code` items, so that len() counts
    items, not bytes; a length that is no whole number of items is viewed
    as one row of bytes instead, whose len() is 1."""
    size = struct.calcsize(code)

    def view(data):
        if len(data) % size:
            return memoryview(data).cast("B", shape=[1, len(data)])
        return memoryview(data).cast(code)

    view.__name__ = f"cast_{code}"
    return view


BYTES_LIKE = [bytes, bytearray, memoryview, items_view("H"), items_view("I")]


@example(b"", bytes)
@given(st.binary(max_size=4096), st.sampled_from(BYTES_LIKE))
def test_xor_fold_matches_byte_loop(data, wrap):
    assert xor_fold(wrap(data)) == _xor_fold_by_byte(data)


# either side of every power-of-two lane count up to 128 KiB, which crosses
# the fold's pass table, and the longest frame
@pytest.mark.parametrize(
    "size",
    sorted({2**k + d for k in range(18) for d in (-1, 0, 1)}
           | {HEADER_LEN + MAX_PAYLOAD + CHECKSUM_LEN}),
)
def test_xor_fold_matches_byte_loop_at_lane_edges(size):
    data = random.Random(size).randbytes(size)
    want = _xor_fold_by_byte(data)
    for wrap in BYTES_LIKE:
        assert xor_fold(wrap(data)) == want


# -- decoder contract ---------------------------------------------------------------


@st.composite
def damaged(draw, encodings):
    """A valid encoding with one byte overwritten, then cut short or extended."""
    blob = bytearray(draw(encodings))
    if blob:
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(blob)))
    return bytes(blob[:cut]) + draw(st.binary(max_size=3))


@given(
    st.binary(max_size=80)
    | damaged(frames.map(encode_frame))
    | damaged(st.lists(readings, max_size=5).map(encode_readings))
)
def test_decoders_raise_only_decode_error(data):
    for decode in (decode_frame, decode_readings):
        try:
            decode(data)
        except DecodeError:
            pass


# -- encoder contract ---------------------------------------------------------------


def around(*limits):
    """Ints of any size, ints next to each limit, floats and bools."""
    return (
        st.integers()
        | st.sampled_from(limits).flatmap(lambda n: st.integers(n - 1, n + 1))
        | st.floats()
        | st.booleans()
    )


def lengths_around(limit):
    """Short byte strings, and zero bytes of one less, exactly, one more than
    `limit`."""
    return st.binary(max_size=3) | st.integers(limit - 1, limit + 1).map(bytes)


def round_trips_or_is_refused(encode, decode, value):
    try:
        encoded = encode(value)
    except ValueError:  # struct.error is not one, so it fails the test
        return
    assert decode(encoded) == value


@given(
    st.lists(
        st.builds(
            SensorReading,
            node_id=around(0, 0xFFFF),
            timestamp=around(0, 0xFFFFFFFF),
            kind=st.sampled_from(ReadingKind) | st.integers(-1, 3) | st.floats(),
            value=lengths_around(255),
        ),
        max_size=3,
    )
)
def test_encode_readings_round_trips_or_raises_value_error(batch):
    round_trips_or_is_refused(encode_readings, decode_readings, batch)


@given(
    st.builds(
        Frame,
        sink_id=around(0, 0xFFFF),
        sequence=around(0, 0xFFFFFFFF),
        payload=lengths_around(MAX_PAYLOAD),
    )
)
def test_encode_frame_round_trips_or_raises_value_error(frame):
    round_trips_or_is_refused(encode_frame, decode_frame, frame)


def test_float_fields_raise_value_error():
    with pytest.raises(ValueError):
        encode_readings([SensorReading(1.5, 0, ReadingKind.SCALAR, b"")])
    with pytest.raises(ValueError):
        encode_frame(Frame(sink_id=1.5, sequence=0))


def test_too_many_readings():
    reading = SensorReading(node_id=0, timestamp=0, kind=ReadingKind.SCALAR,
                            value=b"")
    with pytest.raises(TooManyReadingsError):
        encode_readings([reading] * 65536)


def test_reading_field_validation():
    with pytest.raises(ValueError):
        encode_readings(
            [SensorReading(node_id=1, timestamp=0, kind=ReadingKind.SCALAR,
                           value=b"v" * 256)]
        )
    with pytest.raises(ValueError):
        encode_readings(
            [SensorReading(node_id=-1, timestamp=0, kind=ReadingKind.SCALAR,
                           value=b"")]
        )


def test_encode_frame_names_the_field_of_a_huge_int():
    # past the interpreter's int-to-str digit limit, so the message must not
    # format the value
    huge = 10**5000
    with pytest.raises(ValueError, match=r"^frame header .*: sink_id is a u16 "):
        encode_frame(Frame(sink_id=huge, sequence=0))
    with pytest.raises(ValueError, match=r"^frame header .*: sequence is a u32 "):
        encode_frame(Frame(sink_id=0, sequence=huge))


def test_encode_readings_names_the_field_of_a_huge_int():
    huge = 10**5000
    with pytest.raises(ValueError, match=r"^reading .*: node_id is a u16 "):
        encode_readings([SensorReading(huge, 0, ReadingKind.SCALAR, b"")])
    with pytest.raises(ValueError, match=r"^reading .*: timestamp is a u32 "):
        encode_readings([SensorReading(0, huge, ReadingKind.SCALAR, b"")])
    with pytest.raises(ValueError, match=r"^reading kind \(int\) is not a "):
        encode_readings([SensorReading(0, 0, huge, b"")])


@pytest.mark.parametrize("value", ["ab", [1, 2], 5, None])
def test_encoders_refuse_a_value_that_is_not_bytes_like(value):
    # ValueError naming the type, before or after a good record
    good = SensorReading(1, 1, ReadingKind.SCALAR, b"\x01\x02")
    bad = SensorReading(2, 2, ReadingKind.SCALAR, value)
    message = rf"^reading value \({type(value).__name__}\) is not bytes-like$"
    for batch in ([bad], [good, bad], [bad, good]):
        with pytest.raises(ValueError, match=message) as caught:
            encode_readings(batch)
        assert type(caught.value) is ValueError
    with pytest.raises(ValueError, match=r"^frame payload \(str\) is not bytes-like$"):
        encode_frame(Frame(sink_id=1, sequence=0, payload="ab"))
    with pytest.raises(ValueError, match=r"^frame payload \(int\) is not bytes-like$"):
        encode_frame(Frame(sink_id=1, sequence=0, payload=5))


@pytest.mark.parametrize("value", [b"\x01\x02", bytearray(b"\x01\x02"),
                                   memoryview(b"\x01\x02"),
                                   memoryview(b"\x01\x02").cast("H")])
def test_encoders_take_every_bytes_like_value(value):
    want = encode_readings([SensorReading(1, 1, ReadingKind.SCALAR, b"\x01\x02")])
    assert encode_readings([SensorReading(1, 1, ReadingKind.SCALAR, value)]) == want
    frame = encode_frame(Frame(sink_id=1, sequence=0, payload=value))
    assert frame == encode_frame(Frame(sink_id=1, sequence=0, payload=b"\x01\x02"))


def test_frame_payload_length_counts_bytes_not_items():
    wide = memoryview(b"\x01\x02\x03\x04").cast("H")  # 2 items of 2 bytes
    want = encode_frame(Frame(1, 0, b"\x01\x02\x03\x04"))
    assert encode_frame(Frame(1, 0, wide)) == want


@pytest.mark.parametrize("code", ["H", "I"])
def test_reading_value_length_counts_bytes_not_items(code):
    value = bytes(range(1, 9))
    batch = encode_readings([SensorReading(1, 1, ReadingKind.SCALAR, value)])
    view = memoryview(value).cast(code)
    assert encode_readings([SensorReading(1, 1, ReadingKind.SCALAR, view)]) == batch
    assert decode_readings(batch) == [(1, 1, ReadingKind.SCALAR, value)]


def _outcome(decode, data):
    try:
        return decode(data)
    except DecodeError as exc:
        return type(exc), str(exc)


@given(
    st.binary(max_size=80)
    | frames.map(encode_frame)
    | damaged(frames.map(encode_frame))
    | st.lists(readings, max_size=5).map(encode_readings)
    | damaged(st.lists(readings, max_size=5).map(encode_readings)),
    st.sampled_from(BYTES_LIKE),
)
def test_decoders_read_the_bytes_of_any_bytes_like_input(data, wrap):
    for decode in (decode_frame, decode_readings):
        assert _outcome(decode, wrap(data)) == _outcome(decode, data)


# -- against the reference codecs -----------------------------------------------------


def typed(value):
    """`value` with the type of every element spelled out, so that equal
    outcomes also have equal types (a ReadingKind, not its int)."""
    if isinstance(value, (list, tuple)):
        return type(value), [typed(item) for item in value]
    return type(value), value


def same_outcome(function, reference, arg):
    """Both return equal values of equal types, or raise the same exception
    class with the same message."""
    outcomes = []
    for call in (function, reference):
        try:
            outcomes.append(typed(call(arg)))
        except Exception as exc:  # the class and message are what is compared
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


@given(
    st.binary(max_size=80)
    | damaged(st.lists(readings, max_size=8).map(encode_readings))
    | st.lists(readings, max_size=8).map(encode_readings)
)
def test_decode_readings_matches_reference(data):
    same_outcome(decode_readings, ref_decode_readings, data)
    same_outcome(decode_readings, ref_decode_readings, bytearray(data))
    same_outcome(_count_readings, lambda d: len(ref_decode_readings(d)), data)


@given(
    st.lists(
        st.tuples(
            around(0, 0xFFFF),
            around(0, 0xFFFFFFFF),
            st.sampled_from(ReadingKind) | st.integers(-1, 3) | st.floats(),
            lengths_around(255)
            | st.binary(max_size=3).map(bytearray)
            | st.integers(),
        ).map(lambda fields: SensorReading(*fields))
        | st.lists(st.integers(0, 3), max_size=5).map(tuple),
        max_size=4,
    )
    | st.lists(readings, max_size=8)
)
def test_encode_readings_matches_reference(batch):
    same_outcome(encode_readings, ref_encode_readings, batch)


def test_codecs_match_reference_at_the_count_limit():
    reading = SensorReading(0, 0, ReadingKind.SCALAR, b"")
    for count in (0xFFFF, 0x10000):
        same_outcome(encode_readings, ref_encode_readings, [reading] * count)
    same_outcome(decode_readings, ref_decode_readings,
                 encode_readings([reading] * 0xFFFF))
