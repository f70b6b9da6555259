import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import exhaustive_search_reference

from wsncrypt import keyspace
from wsncrypt.cipher import (
    adjacent_swap,
    bits_to_bytes,
    bytes_to_bits,
    complement,
    decrypt,
    encrypt,
)
from wsncrypt.keyspace import (
    MODE_AVERAGE,
    MODE_WORST_CASE,
    SECONDS_PER_YEAR,
    AttackModel,
    KeyLengthOutOfRangeError,
    LengthMismatchError,
    NoKeyFitsError,
    _key_period,
    estimate_brute_force,
    exhaustive_search,
    recover_key,
    recover_keystream,
)


# -- estimate_brute_force ------------------------------------------------------


def test_year_constant():
    assert SECONDS_PER_YEAR == 86400 * 365 == 31_536_000


def test_64_bit_average_years():
    est = estimate_brute_force(
        AttackModel(key_length_bits=64, keys_per_second=Fraction(10**6))
    )
    assert est.total_keys == 2**64
    assert est.seconds == Fraction(2**63, 10**6)
    assert est.years == Fraction(2**63, 10**6 * SECONDS_PER_YEAR)
    assert est.years_floor == 292471


def test_64_bit_worst_case_years():
    est = estimate_brute_force(
        AttackModel(
            key_length_bits=64,
            keys_per_second=Fraction(10**6),
            mode=MODE_WORST_CASE,
        )
    )
    assert est.years == Fraction(2**64, 10**6 * SECONDS_PER_YEAR)
    assert est.years_floor == 584942


def test_tiny_keyspace():
    est = estimate_brute_force(
        AttackModel(key_length_bits=1, keys_per_second=Fraction(1),
                    mode=MODE_WORST_CASE)
    )
    assert est.total_keys == 2
    assert est.seconds == 2
    assert est.years < 1


def test_large_keyspace_stays_exact():
    est = estimate_brute_force(
        AttackModel(key_length_bits=512, keys_per_second=Fraction(10**9))
    )
    assert est.total_keys == 2**512
    assert est.seconds * Fraction(10**9) * 2 == 2**512


def test_fractional_rate():
    # half a key per second, worst case: 2 keys take 4 seconds
    est = estimate_brute_force(
        AttackModel(key_length_bits=1, keys_per_second=Fraction(1, 2),
                    mode=MODE_WORST_CASE)
    )
    assert est.seconds == 4


def test_attack_model_validation():
    with pytest.raises(ValueError):
        AttackModel(key_length_bits=0, keys_per_second=Fraction(1))
    with pytest.raises(ValueError):
        AttackModel(key_length_bits=8, keys_per_second=Fraction(0))
    with pytest.raises(ValueError):
        AttackModel(key_length_bits=8, keys_per_second=Fraction(1), mode="best")


@given(st.integers(1, 256), st.integers(1, 10**9))
def test_average_is_half_of_worst(bits, rate):
    avg = estimate_brute_force(
        AttackModel(bits, Fraction(rate), MODE_AVERAGE)
    )
    worst = estimate_brute_force(
        AttackModel(bits, Fraction(rate), MODE_WORST_CASE)
    )
    assert worst.seconds == 2 * avg.seconds
    assert worst.total_keys == avg.total_keys == 2**bits


# -- recover_keystream ----------------------------------------------------------


def test_recover_keystream_from_worked_example():
    stream = recover_keystream(b"AB", bytes([216, 219]))
    assert stream == bytes_to_bits(b"ZZ")


def test_recover_keystream_rejects_bad_lengths():
    with pytest.raises(LengthMismatchError):
        recover_keystream(b"", b"")
    with pytest.raises(LengthMismatchError):
        recover_keystream(b"ab", b"abc")


@given(st.binary(min_size=1, max_size=200), st.binary(min_size=1, max_size=32))
def test_recovered_stream_reencrypts(plaintext, key):
    ciphertext = encrypt(plaintext, key)
    stream = recover_keystream(plaintext, ciphertext)
    # the stream is the raw key bits cycled to message length
    key_bits = bytes_to_bits(key)
    assert stream == [key_bits[i % len(key_bits)] for i in range(8 * len(plaintext))]


@given(st.data())
def test_recover_keystream_matches_bit_list_definition(data):
    plaintext = data.draw(st.binary(min_size=1, max_size=200))
    n = len(plaintext)
    ciphertext = data.draw(st.binary(min_size=n, max_size=n))  # any block
    masked = complement(adjacent_swap(bytes_to_bits(ciphertext)))
    expected = [c ^ p for c, p in zip(masked, bytes_to_bits(plaintext))]
    assert recover_keystream(plaintext, ciphertext) == expected


@given(st.data())
def test_recovered_prefix_is_the_key(data):
    key = data.draw(st.binary(min_size=1, max_size=16))
    plaintext = data.draw(st.binary(min_size=len(key), max_size=64))
    stream = recover_keystream(plaintext, encrypt(plaintext, key))
    assert stream[: 8 * len(key)] == bytes_to_bits(key)


# -- recover_keystream: one key period, repeated -----------------------------------


def _bit_list_definition(plaintext, ciphertext):
    masked = complement(adjacent_swap(bytes_to_bits(ciphertext)))
    return [c ^ p for c, p in zip(masked, bytes_to_bits(plaintext))]


def _shortest_period(stream):
    """Every p from 1 to 32 tried against the whole stream, else its length."""
    return next(
        (p for p in range(1, min(32, len(stream) - 1) + 1)
         if stream[p:] == stream[:-p]),
        len(stream),
    )


def _pair_with_stream(stream, rng):
    """A random plaintext and the ciphertext that leaks `stream` with it."""
    plaintext = rng.randbytes(len(stream))
    undone = bytes(s ^ p for s, p in zip(stream, plaintext))
    # the swap and the complement are their own inverses and commute
    return plaintext, bits_to_bytes(complement(adjacent_swap(bytes_to_bits(undone))))


@pytest.mark.parametrize("key_len", range(1, 33))
def test_real_pair_expands_one_key_period(key_len):
    """Blocks shorter than, as long as and around twice the key, and 64 bytes."""
    rng = random.Random(key_len)
    key = rng.randbytes(key_len)
    for n in sorted({max(1, m + d) for m in (key_len, 2 * key_len, 64)
                     for d in (-1, 0, 1)}):
        plaintext = rng.randbytes(n)
        ciphertext = encrypt(plaintext, key)
        stream = (key * n)[:n]
        assert _key_period(stream) == _shortest_period(stream)
        if n > key_len:  # the key period itself is found, or a shorter one
            assert _key_period(stream) <= key_len
        assert recover_keystream(plaintext, ciphertext) == _bit_list_definition(
            plaintext, ciphertext
        )


@given(st.data())
def test_window_that_recurs_without_a_period_is_refused(data):
    """A p-periodic stream with one byte changed past its first 64 bytes: its
    first bytes recur at p, so p is proposed, and the whole-block compare must
    refuse it."""
    period = data.draw(st.integers(1, 32), label="period")
    n = data.draw(st.integers(period + 65, 300), label="n")
    at = data.draw(st.integers(64, n - 1), label="at")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    stream = bytearray((rng.randbytes(period) * n)[:n])
    stream[at] ^= data.draw(st.integers(1, 255), label="delta")
    stream = bytes(stream)
    assert stream.find(stream[:32], 1, 64) != -1
    assert _key_period(stream) == _shortest_period(stream) != period
    plaintext, ciphertext = _pair_with_stream(stream, rng)
    assert recover_keystream(plaintext, ciphertext) == _bit_list_definition(
        plaintext, ciphertext
    )


@pytest.mark.parametrize("period", range(33, 65))
def test_period_longer_than_any_key_expands_in_full(period):
    rng = random.Random(period)
    unit = rng.randbytes(period)
    for n in (period + 1, 2 * period, 2 * period + 1, 200):
        stream = (unit * n)[:n]
        assert _shortest_period(stream) == n  # these seeds give no period <= 32
        assert _key_period(stream) == n
        plaintext, ciphertext = _pair_with_stream(stream, rng)
        assert recover_keystream(plaintext, ciphertext) == _bit_list_definition(
            plaintext, ciphertext
        )


@pytest.mark.parametrize("pair", [True, False], ids=["pair", "non-pair"])
def test_one_mib_block_matches_bit_list_definition(pair):
    rng = random.Random(1 << 20)
    plaintext = rng.randbytes(1 << 20)
    if pair:
        ciphertext = encrypt(plaintext, rng.randbytes(19))
    else:
        ciphertext = rng.randbytes(1 << 20)
    stream = recover_keystream(plaintext, ciphertext)
    assert len(stream) == 8 << 20
    step = 1 << 16  # the definition one slice at a time keeps memory small
    for i in range(0, 1 << 20, step):
        expected = _bit_list_definition(
            plaintext[i:i + step], ciphertext[i:i + step]
        )
        assert stream[8 * i:8 * (i + step)] == expected


@pytest.mark.parametrize("pair", [True, False], ids=["pair", "non-pair"])
def test_recover_keystream_holds_one_bit_list_at_a_time(pair):
    """No second copy of the whole list: the peak is the list of 8n slots,
    or 1.5 times it for a non-pair block, whose expansion joins n bytes
    objects with an 80-byte buffer record each; a copy would make it 2."""
    rng = random.Random(1 << 16)
    plaintext = rng.randbytes(1 << 16)
    if pair:
        ciphertext = encrypt(plaintext, rng.randbytes(19))
    else:
        ciphertext = rng.randbytes(1 << 16)
    tracemalloc.start()
    try:
        stream = recover_keystream(plaintext, ciphertext)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stream) == 8 << 16
    assert peak < 1.75 * 8 * len(stream)  # one pointer per bit


# -- recover_key --------------------------------------------------------------------


@given(st.data())
def test_recover_key_returns_the_key_that_encrypts(data):
    key = data.draw(st.binary(min_size=1, max_size=32), label="key")
    plaintext = data.draw(st.binary(min_size=len(key), max_size=96), label="plain")
    ciphertext = encrypt(plaintext, key)
    found = recover_key(plaintext, ciphertext, len(key))
    assert found == key
    assert encrypt(plaintext, found) == ciphertext


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_recover_key_equals_exhaustive_search(data):
    """True ciphertexts and ones with a bit flipped: where the search finds
    no key, `recover_key` refuses the block."""
    key_len = data.draw(st.sampled_from((1, 2)), label="key_len")
    key = data.draw(st.binary(min_size=key_len, max_size=key_len), label="key")
    plaintext = data.draw(st.binary(min_size=key_len, max_size=40), label="plain")
    ciphertext = encrypt(plaintext, key)
    if data.draw(st.booleans(), label="flip"):
        bit = data.draw(st.integers(0, 8 * len(ciphertext) - 1), label="bit")
        flipped = int.from_bytes(ciphertext, "big") ^ (1 << bit)
        ciphertext = flipped.to_bytes(len(ciphertext), "big")
    found = exhaustive_search(plaintext, ciphertext, key_len)
    if found is None:
        with pytest.raises(NoKeyFitsError):
            recover_key(plaintext, ciphertext, key_len)
    else:
        assert recover_key(plaintext, ciphertext, key_len) == found


def test_recover_key_without_length_gives_the_shortest_equivalent_key():
    rng = random.Random(0x5A)
    for key_len in (1, 2, 8, 32):
        key = b"\x5a" * key_len
        plaintext = rng.randbytes(40)
        ciphertext = encrypt(plaintext, key)
        assert recover_key(plaintext, ciphertext) == b"\x5a"
        assert recover_key(plaintext, ciphertext, key_len) == key
    key = bytes.fromhex("a1b2c3")
    plaintext = rng.randbytes(40)
    assert recover_key(plaintext, encrypt(plaintext, key)) == key


@pytest.mark.parametrize("wrap", [
    bytearray, memoryview,
    # len() of a wide memoryview counts its items, not its bytes
    pytest.param(lambda b: memoryview(b).cast("H"), id="wide-memoryview"),
])
def test_attacks_take_any_bytes_like_block(wrap):
    key = bytes.fromhex("a1b2")
    plaintext = random.Random(3).randbytes(40)
    ciphertext = encrypt(plaintext, key)
    pair = (wrap(plaintext), wrap(ciphertext))
    assert recover_key(*pair) == recover_key(*pair, 2) == key
    assert recover_keystream(*pair) == recover_keystream(plaintext, ciphertext)
    assert exhaustive_search(*pair, 2) == key
    assert exhaustive_search(pair[0], ciphertext, 2) == key


def test_recover_key_refuses_a_block_no_key_fits():
    rng = random.Random(17)
    plaintext = rng.randbytes(40)
    ciphertext = bytearray(encrypt(plaintext, bytes.fromhex("a1b2c3")))
    ciphertext[39] ^= 1  # past the first period, so only the full check sees it
    ciphertext = bytes(ciphertext)
    with pytest.raises(NoKeyFitsError, match="no key of 3 bytes"):
        recover_key(plaintext, ciphertext, 3)
    # the stream's shortest period is now the whole 40-byte block
    with pytest.raises(NoKeyFitsError, match="at most 32 bytes"):
        recover_key(plaintext, ciphertext)
    assert issubclass(NoKeyFitsError, ValueError)


def test_recover_key_validation():
    with pytest.raises(LengthMismatchError):
        recover_key(b"", b"", 1)
    with pytest.raises(LengthMismatchError):
        recover_key(b"abc", b"ab")
    with pytest.raises(LengthMismatchError):
        recover_key(b"ab", b"ab", 3)  # the block is shorter than the key
    for key_len in (0, 33):
        with pytest.raises(KeyLengthOutOfRangeError):
            recover_key(b"a" * 40, b"a" * 40, key_len)


# -- exhaustive_search ------------------------------------------------------------


def test_search_recovers_worked_example_key():
    assert exhaustive_search(b"AB", bytes([216, 219]), 1) == b"Z"


def test_search_random_round_trips():
    rng = random.Random(4242)
    for key_len in (1, 2):
        for _ in range(5):
            key = bytes(rng.randrange(256) for _ in range(key_len))
            plaintext = bytes(rng.randrange(256) for _ in range(6))
            found = exhaustive_search(plaintext, encrypt(plaintext, key), key_len)
            assert found == key
            assert encrypt(plaintext, found) == encrypt(plaintext, key)


def test_search_corrupted_ciphertext_not_found():
    plaintext = b"AB"
    corrupted = bytes([216 ^ 0x10, 219])
    # independent verification over the whole 1-byte keyspace
    matches = [
        k for k in range(256)
        if encrypt(plaintext, bytes([k])) == corrupted
    ]
    assert matches == []
    assert exhaustive_search(plaintext, corrupted, 1) is None


def test_search_validation():
    with pytest.raises(KeyLengthOutOfRangeError):
        exhaustive_search(b"abcd", b"abcd", 0)
    with pytest.raises(KeyLengthOutOfRangeError):
        exhaustive_search(b"abcd", b"abcd", 4)
    with pytest.raises(LengthMismatchError):
        exhaustive_search(b"abc", b"ab", 1)
    with pytest.raises(LengthMismatchError):
        exhaustive_search(b"a", b"a", 2)  # plaintext shorter than the key


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_search_equals_reference_scan(data):
    """The hoisted trial kernel returns what a full `encrypt` per candidate
    returns: 1- and 2-byte keys, blocks of L..40 bytes (tails where n % L is
    not 0 included), true ciphertexts and ones with a bit flipped."""
    key_len = data.draw(st.sampled_from((1, 2)), label="key_len")
    key = data.draw(st.binary(min_size=key_len, max_size=key_len), label="key")
    plaintext = data.draw(st.binary(min_size=key_len, max_size=40), label="plain")
    ciphertext = encrypt(plaintext, key)
    if data.draw(st.booleans(), label="flip"):
        bit = data.draw(st.integers(0, 8 * len(ciphertext) - 1), label="bit")
        flipped = int.from_bytes(ciphertext, "big") ^ (1 << bit)
        ciphertext = flipped.to_bytes(len(ciphertext), "big")
    assert exhaustive_search(
        plaintext, ciphertext, key_len
    ) == exhaustive_search_reference(plaintext, ciphertext, key_len, encrypt)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(0, (1 << 12) - 1).map(lambda v: v.to_bytes(3, "big")),
    st.binary(min_size=3, max_size=40),
)
def test_search_equals_reference_scan_3_byte_keys(key, plaintext):
    """Keys below 2**12, so the reference scan stays short."""
    ciphertext = encrypt(plaintext, key)
    found = exhaustive_search(plaintext, ciphertext, 3)
    assert found == exhaustive_search_reference(plaintext, ciphertext, 3, encrypt)
    assert found == key


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=3, max_size=3), st.binary(min_size=3, max_size=40))
@example(bytes.fromhex("800000"), bytes(range(16)))
@example(bytes.fromhex("ffffff"), bytes(3))
def test_search_finds_any_3_byte_key(key, plaintext):
    """The whole 3-byte key space, high bytes of 0x80 and up included:
    `binary` draws each key byte across 0..255, unlike `integers`, which
    favours small keys."""
    ciphertext = encrypt(plaintext, key)
    found = exhaustive_search(plaintext, ciphertext, 3)
    assert found == key
    assert decrypt(ciphertext, found) == plaintext


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lane_hit_rejected_by_the_whole_block_equals_reference_scan(data):
    """Blocks of 17..64 bytes with one bit flipped past the first 16: the
    stream's first bytes still match the key's lane, so only the confirming
    `encrypt` over the whole block can refuse it."""
    key_len = data.draw(st.sampled_from((1, 2)), label="key_len")
    key = data.draw(st.binary(min_size=key_len, max_size=key_len), label="key")
    plaintext = data.draw(st.binary(min_size=17, max_size=64), label="plain")
    ciphertext = bytearray(encrypt(plaintext, key))
    at = data.draw(st.integers(16, len(ciphertext) - 1), label="at")
    ciphertext[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    ciphertext = bytes(ciphertext)
    found = exhaustive_search(plaintext, ciphertext, key_len)
    assert found is None
    assert found == exhaustive_search_reference(plaintext, ciphertext, key_len, encrypt)


@pytest.mark.parametrize("key_hex", ["00", "ff", "0100", "ffff", "000100", "ffffff"])
def test_keys_at_the_edges_of_a_pass_are_found(key_hex):
    """The first and last lanes of the first and last passes, and the first
    lane of the second pass, over blocks as long as the key, shorter than the
    lane prefix, as long as it and longer."""
    key = bytes.fromhex(key_hex)
    rng = random.Random(key_hex)
    for n in (len(key), 7, 16, 41):
        plaintext = rng.randbytes(n)
        ciphertext = encrypt(plaintext, key)
        found = exhaustive_search(plaintext, ciphertext, len(key))
        assert found == key  # n >= L: the block's first L bytes fix the key
        assert decrypt(ciphertext, found) == plaintext


def test_match_that_straddles_two_lanes_is_not_a_candidate(monkeypatch):
    """1-byte keys fill a 16-byte lane with one byte value, so a stream that
    starts with 5s and then 6s matches across lanes 5 and 6.  No key yields
    it, and the straddling match is skipped without an `encrypt` call."""
    stream = bytes([5] * 9 + [6] * 7)
    plaintext, ciphertext = _pair_with_stream(stream, random.Random(5))
    calls = []
    monkeypatch.setattr(
        keyspace, "encrypt", lambda *args: calls.append(args) or encrypt(*args)
    )
    assert exhaustive_search(plaintext, ciphertext, 1) is None
    assert calls == []


# -- scripts/attack_experiment.py ------------------------------------------------


def test_attack_experiment_script():
    script = Path(__file__).resolve().parent.parent / "scripts" / "attack_experiment.py"
    done = subprocess.run(
        [sys.executable, str(script), "--instances", "2", "--max-key-bytes", "1"],
        capture_output=True, text=True, check=True,
    )
    assert re.search(
        r"^structure-blind trial rate: [\d,]+ keys/s \([\d,]+ trials, one encrypt"
        r" of a 16-byte block and one compare each\)$",
        done.stdout, re.MULTILINE,
    )
    assert re.search(
        r"^at that rate, an average 64-bit search takes [\d,]+ years$",
        done.stdout, re.MULTILINE,
    )
    assert re.search(
        r"^keystream recovery from one 24-byte block: key ([0-9a-f]{16})"
        r" recovered as \1 \(match\) in O\(n\), no search$",
        done.stdout, re.MULTILINE,
    )


@pytest.mark.parametrize("instances", ["0", "-1"])
def test_attack_experiment_script_refuses_counts_below_1(instances):
    script = Path(__file__).resolve().parent.parent / "scripts" / "attack_experiment.py"
    done = subprocess.run(
        [sys.executable, str(script), "--instances", instances],
        capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage: ")
    assert f"argument --instances: must be at least 1, got {instances}" in done.stderr
    assert "Traceback" not in done.stderr
