import functools
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsncrypt.cipher import (
    _BULK,
    EmptyKeyError,
    KeyLengthError,
    NonByteAlignedError,
    adjacent_swap,
    bits_to_bytes,
    bytes_to_bits,
    complement,
    decrypt,
    decryptor,
    encrypt,
    encryptor,
    key_directed_xor,
)

from reference import ref_bytes_to_bits, ref_decrypt, ref_encrypt

keys = st.binary(min_size=1, max_size=32)
bitstreams = st.lists(st.integers(0, 1), max_size=200)


def bits(text: str):
    return [int(c) for c in text]


# -- bytes_to_bits / bits_to_bytes -------------------------------------------


def test_bytes_to_bits_golden():
    assert bytes_to_bits(bytes([90])) == bits("01011010")
    assert bytes_to_bits(bytes([65])) == bits("01000001")


def test_bytes_to_bits_empty():
    assert bytes_to_bits(b"") == []


def test_bytes_to_bits_length_and_order():
    out = bytes_to_bits(b"\x80\x01")
    assert len(out) == 16
    assert out[0] == 1 and out[15] == 1
    assert sum(out) == 2


@given(st.binary(max_size=256))
@example(b"")
def test_bytes_to_bits_matches_reference(data):
    assert bytes_to_bits(data) == ref_bytes_to_bits(data)


def test_bytes_to_bits_every_single_byte():
    for byte in range(256):
        bits = bytes_to_bits(bytes([byte]))
        assert type(bits) is list
        assert bits == ref_bytes_to_bits(bytes([byte]))


def test_bits_to_bytes_golden():
    assert bits_to_bytes(bits("11011000")) == bytes([216])
    assert bits_to_bytes(bits("11011011")) == bytes([219])
    assert bits_to_bytes([]) == b""


def test_bits_to_bytes_rejects_misaligned():
    with pytest.raises(NonByteAlignedError):
        bits_to_bytes([1, 0, 1])


@given(st.binary(max_size=128))
def test_bit_byte_round_trip(data):
    assert bits_to_bytes(bytes_to_bits(data)) == data


# -- adjacent_swap ------------------------------------------------------------


def test_adjacent_swap_golden():
    assert adjacent_swap(bits("01011010")) == bits("10100101")
    assert adjacent_swap(bits("01000001")) == bits("10000010")
    assert adjacent_swap(bits("00000000")) == bits("00000000")


def test_adjacent_swap_odd_length_keeps_tail():
    assert adjacent_swap([1, 0, 1]) == [0, 1, 1]
    assert adjacent_swap([1]) == [1]
    assert adjacent_swap([]) == []


@given(bitstreams)
def test_adjacent_swap_involution(stream):
    assert adjacent_swap(adjacent_swap(stream)) == stream


@given(bitstreams)
def test_adjacent_swap_preserves_length_and_population(stream):
    swapped = adjacent_swap(stream)
    assert len(swapped) == len(stream)
    assert sum(swapped) == sum(stream)


# -- key_directed_xor ----------------------------------------------------------


def test_key_directed_xor_golden():
    assert key_directed_xor(bits("10000010"), bits("10100101")) == bits("00100111")
    assert key_directed_xor(bits("10000001"), bits("10100101")) == bits("00100100")


def test_key_directed_xor_zero_key_is_identity():
    message = bits("1011001110001111")
    assert key_directed_xor(message, [0] * 8) == message


def test_key_directed_xor_empty_key_rejected():
    with pytest.raises(EmptyKeyError):
        key_directed_xor([1, 0], [])


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=200),
    st.lists(st.integers(0, 1), min_size=1, max_size=64),
)
def test_key_directed_xor_matches_plain_xor(message, key):
    expect = [m ^ key[i % len(key)] for i, m in enumerate(message)]
    assert key_directed_xor(message, key) == expect


# -- complement ----------------------------------------------------------------


def test_complement_golden():
    assert complement(bits("00100111")) == bits("11011000")
    assert complement(bits("00100100")) == bits("11011011")
    assert complement([]) == []


@given(bitstreams)
def test_complement_involution(stream):
    assert complement(complement(stream)) == stream


# -- encrypt / decrypt ----------------------------------------------------------


def test_encrypt_golden_single_bytes():
    assert encrypt(b"A", b"Z") == bytes([216])
    assert encrypt(b"B", b"Z") == bytes([219])
    assert encrypt(b"\x00", b"\x00") == b"\xff"


def test_decrypt_golden_single_bytes():
    assert decrypt(bytes([216]), b"Z") == b"A"
    assert decrypt(bytes([219]), b"Z") == b"B"


def test_empty_plaintext_is_not_an_error():
    assert encrypt(b"", b"Z") == b""
    assert decrypt(b"", b"Z") == b""


def test_key_validation():
    with pytest.raises(EmptyKeyError):
        encrypt(b"hello", b"")
    with pytest.raises(EmptyKeyError):
        decrypt(b"hello", b"")
    with pytest.raises(KeyLengthError):
        encrypt(b"hello", b"k" * 33)


def test_encrypt_matches_bit_pipeline_composition():
    rng = random.Random(2024)
    for _ in range(50):
        plaintext = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        key = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 33)))
        composed = bits_to_bytes(
            complement(
                key_directed_xor(
                    adjacent_swap(bytes_to_bits(plaintext)),
                    adjacent_swap(bytes_to_bits(key)),
                )
            )
        )
        assert encrypt(plaintext, key) == composed


def test_decrypt_matches_bit_pipeline_composition():
    rng = random.Random(2025)
    for _ in range(50):
        ciphertext = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        key = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 33)))
        composed = bits_to_bytes(
            adjacent_swap(
                key_directed_xor(
                    complement(bytes_to_bits(ciphertext)),
                    adjacent_swap(bytes_to_bits(key)),
                )
            )
        )
        assert decrypt(ciphertext, key) == composed


def test_encrypt_against_bit_at_a_time_reference():
    rng = random.Random(99)
    plaintext = bytes(rng.randrange(256) for _ in range(1000))
    key = bytes(rng.randrange(256) for _ in range(8))
    assert encrypt(plaintext, key) == ref_encrypt(plaintext, key)


@given(st.binary(max_size=512), keys)
def test_round_trip(plaintext, key):
    assert decrypt(encrypt(plaintext, key), key) == plaintext


@given(st.binary(max_size=512), keys)
def test_length_preserved(plaintext, key):
    assert len(encrypt(plaintext, key)) == len(plaintext)


@given(st.binary(max_size=128), keys)
def test_reference_equivalence(plaintext, key):
    ciphertext = encrypt(plaintext, key)
    assert ciphertext == ref_encrypt(plaintext, key)
    assert decrypt(ciphertext, key) == ref_decrypt(ciphertext, key)


def test_determinism():
    plaintext, key = b"same input, same output", b"fixed"
    assert encrypt(plaintext, key) == encrypt(plaintext, key)
    assert decrypt(plaintext, key) == decrypt(plaintext, key)


# -- the bulk path (messages of at least _BULK bytes) ---------------------------


@pytest.mark.parametrize(
    "size, key_len",
    [(_BULK - 1, 3), (_BULK, 1), (_BULK + 1, 8), (3 * _BULK + 5, 32)],
)
def test_bulk_boundary_against_bit_at_a_time_reference(size, key_len):
    # One reference call per case (~0.1 s per 32 KiB); the reference pair is
    # mutually inverse, so decrypt(ref_encrypt(p)) == p also pins decrypt.
    rng = random.Random(size * 33 + key_len)
    plaintext = rng.randbytes(size)
    key = rng.randbytes(key_len)
    ciphertext = ref_encrypt(plaintext, key)
    assert encrypt(plaintext, key) == ciphertext
    assert decrypt(ciphertext, key) == plaintext


@settings(max_examples=25, deadline=None)
@given(
    st.integers(_BULK - 40, _BULK + 40),
    st.integers(0, 2**32 - 1),
    keys,
)
def test_bulk_matches_short_path_block_by_block(size, seed, key):
    # Blocks start at multiples of the key length and stay below _BULK, so
    # each one takes the short path with the key stream in phase.
    plaintext = random.Random(seed).randbytes(size)
    block = _BULK // 2 // len(key) * len(key)
    blocks = range(0, size, block)
    ciphertext = encrypt(plaintext, key)
    assert ciphertext == b"".join(
        encrypt(plaintext[i : i + block], key) for i in blocks
    )
    assert decrypt(plaintext, key) == b"".join(
        decrypt(plaintext[i : i + block], key) for i in blocks
    )
    assert decrypt(ciphertext, key) == plaintext


@functools.cache
def reference_pair(size, key_len):
    rng = random.Random(size * 33 + key_len)
    plaintext = rng.randbytes(size)
    key = rng.randbytes(key_len)
    return plaintext, key, ref_encrypt(plaintext, key)


@pytest.mark.parametrize("key_len, size", [
    *((key_len, size) for key_len in (1, 2, 32)
      for size in (_BULK - 1, _BULK, _BULK + 1)),
    *((1, size) for size in (1, 16, 776, 4096)),
])
@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
@pytest.mark.parametrize("cipher", [encrypt, decrypt])
def test_both_paths_return_bytes(size, key_len, wrap, cipher):
    # a 1-byte key is one translate at every length, which keeps the
    # input's type; a memoryview has no translate at all
    plaintext, key, ciphertext = reference_pair(size, key_len)
    given, want = plaintext, ciphertext
    if cipher is decrypt:
        given, want = want, given
    result = cipher(wrap(given), wrap(key))
    assert type(result) is bytes
    assert result == want


# -- into a caller's buffer (`out`) ----------------------------------------------

OUT_SIZES = [0, 16, _BULK - 1, _BULK, _BULK + 1]


@pytest.mark.parametrize("size", OUT_SIZES)
@pytest.mark.parametrize("key_len", [1, 3, 32])
@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
@pytest.mark.parametrize("cipher", [encrypt, decrypt])
def test_out_holds_the_bytes_of_a_call_without_it(size, key_len, wrap, cipher):
    rng = random.Random(size * 33 + key_len)
    message, key = rng.randbytes(size), rng.randbytes(key_len)
    out = bytearray(size)
    result = cipher(wrap(message), key, out=out)
    assert type(result) is memoryview
    assert result.obj is out
    assert result == out == cipher(message, key)


@pytest.mark.parametrize("size", OUT_SIZES)
@pytest.mark.parametrize("key_len", [1, 3, 32])
@pytest.mark.parametrize("cipher", [encrypt, decrypt])
def test_out_may_be_a_memoryview(size, key_len, cipher):
    # the bulk path ciphers into a bytearray and copies it into the view once;
    # a view of wider items is measured and filled in bytes all the same
    rng = random.Random(size * 33 + key_len)
    message, key = rng.randbytes(size), rng.randbytes(key_len)
    expected = cipher(message, key)
    for fmt in "BHQ":
        width = struct.calcsize(fmt)
        buffer = bytearray(b"\xa5" * (-(-(size + 8) // width) * width))
        result = cipher(message, key, out=memoryview(buffer).cast(fmt))
        assert result == expected, fmt
        assert buffer == expected + b"\xa5" * (len(buffer) - size), fmt


@pytest.mark.parametrize("size", OUT_SIZES)
@pytest.mark.parametrize("cipher", [encrypt, decrypt])
def test_out_may_be_a_strided_view(size, cipher):
    # a view that is not one run of bytes is filled item by item
    rng = random.Random(size)
    message, key = rng.randbytes(size), rng.randbytes(3)
    buffer = bytearray(b"\xa5" * (2 * size))
    result = cipher(message, key, out=memoryview(buffer)[::2])
    assert result == buffer[::2] == cipher(message, key)
    assert buffer[1::2] == b"\xa5" * size


@pytest.mark.parametrize("size", OUT_SIZES)
@pytest.mark.parametrize("key_len", [1, 3, 32])
@pytest.mark.parametrize("cipher", [encrypt, decrypt])
def test_out_past_the_message_is_left_alone(size, key_len, cipher):
    # as the CLI reuses one buffer: a long message, then a shorter one
    rng = random.Random(size * 33 + key_len)
    first, second = rng.randbytes(size + 40), rng.randbytes(size)
    key = rng.randbytes(key_len)
    out = bytearray(b"\xa5" * (size + 50))
    cipher(first, key, out=out)
    assert out == cipher(first, key) + b"\xa5" * 10
    result = cipher(second, key, out=out)
    assert len(result) == size
    assert out == cipher(second, key) + cipher(first, key)[size:] + b"\xa5" * 10


@pytest.mark.parametrize("size", [1, 16, _BULK, _BULK + 1])
@pytest.mark.parametrize("key_len", [1, 3])
@pytest.mark.parametrize("cipher", [encrypt, decrypt])
def test_out_shorter_than_the_message_is_rejected(size, key_len, cipher):
    out = bytearray(b"\xa5" * (size - 1))
    with pytest.raises(ValueError, match=f"out holds {size - 1} of the message's"):
        cipher(bytes(size), bytes(key_len), out=out)
    assert out == b"\xa5" * (size - 1)


@pytest.mark.parametrize("size", [10, _BULK + 8])
@pytest.mark.parametrize("cipher", [encrypt, decrypt])
def test_a_wide_memoryview_is_read_as_its_bytes(size, cipher):
    # len() of a memoryview counts items, not bytes
    data, key = bytes(range(256)) * (size // 256) + bytes(size % 256), b"\x5a\xa5"
    wide = memoryview(data).cast("H")
    assert cipher(wide, memoryview(key).cast("H")) == cipher(data, key)


@pytest.mark.parametrize("cipher", [encrypt, decrypt])
def test_an_int_is_neither_message_nor_key(cipher):
    # bytes(n) would be n zero bytes
    with pytest.raises(TypeError):
        cipher(5, b"k")
    with pytest.raises(TypeError):
        cipher(b"abc", 1)


# -- one key, many messages (`encryptor`, `decryptor`) ----------------------------

# the message lengths a keyed cipher meets in turn: short ones of every size
# up to a few key periods, and the lengths either side of the bulk fork
keyed_lengths = st.integers(0, 300) | st.sampled_from([0, _BULK - 1, _BULK, _BULK + 1])
# how a message is passed, and the buffer (with 8 spare bytes) it goes into
keyed_wraps = st.sampled_from([bytes, bytearray, memoryview])
keyed_outs = st.sampled_from([None, bytearray, memoryview])


@settings(max_examples=40, deadline=None)
@given(
    st.binary(min_size=1, max_size=32) | st.binary(min_size=1, max_size=1),
    st.lists(st.tuples(keyed_lengths, keyed_wraps, keyed_outs), max_size=8),
    st.integers(0, 2**32 - 1),
)
@example(b"\x5a", [(0, bytes, None), (_BULK + 1, bytes, None), (3, bytes, None)], 0)
@example(b"\x5a\x0f\xc3", [(200, bytes, None), (_BULK - 1, memoryview, bytearray),
                           (0, bytes, None), (7, bytearray, memoryview),
                           (_BULK, bytes, None), (250, bytes, bytearray)], 1)
def test_keyed_once_equals_a_call_per_message(key, messages, seed):
    """One encryptor and one decryptor give, message by message, what a
    fresh `encrypt`/`decrypt` gives, whatever lengths came before; below
    1 KiB (a bit-at-a-time call costs ~0.1 s per 32 KiB) also the reference."""
    seal, unseal = encryptor(key), decryptor(key)
    rng = random.Random(seed)
    for size, wrap, out in messages:
        plaintext = rng.randbytes(size)
        ciphertext = encrypt(plaintext, key)
        if size < 1024:
            assert ciphertext == ref_encrypt(plaintext, key)
            assert decrypt(ciphertext, key) == ref_decrypt(ciphertext, key)
        for cipher, given, want in ((seal, plaintext, ciphertext),
                                    (unseal, ciphertext, plaintext)):
            if out is None:
                assert cipher(wrap(given)) == want
            else:
                buffer = bytearray(b"\xa5" * (size + 8))
                into = buffer if out is bytearray else memoryview(buffer)
                assert cipher(wrap(given), into) == want
                assert buffer == want + b"\xa5" * 8


@pytest.mark.parametrize("key_len", [1, 2, 32])
def test_keyed_once_against_the_reference_across_the_bulk_fork(key_len):
    # the reference is positional, so a prefix of its output is its output
    # for the prefix; one long pair serves every length
    plaintext, key, ciphertext = reference_pair(_BULK + 1, key_len)
    seal, unseal = encryptor(key), decryptor(key)
    for size in (_BULK - 1, 16, _BULK + 1, 0, _BULK, 5, 300):
        assert seal(plaintext[:size]) == ciphertext[:size]
        assert unseal(ciphertext[:size]) == plaintext[:size]


@pytest.mark.parametrize("make", [encryptor, decryptor])
def test_keyed_once_checks_the_key_when_built(make):
    with pytest.raises(EmptyKeyError):
        make(b"")
    with pytest.raises(KeyLengthError):
        make(bytes(33))
    with pytest.raises(TypeError):
        make(1)
    assert make(memoryview(b"\x5a\xa5").cast("H"))(b"ab") == make(b"\x5a\xa5")(b"ab")
