import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsncrypt.cipher import adjacent_swap, bytes_to_bits, complement, encrypt
from wsncrypt.keyspace import (
    MODE_AVERAGE,
    MODE_WORST_CASE,
    SECONDS_PER_YEAR,
    AttackModel,
    KeyLengthOutOfRangeError,
    LengthMismatchError,
    estimate_brute_force,
    exhaustive_search,
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


# -- scripts/attack_experiment.py ------------------------------------------------


def test_attack_experiment_script():
    script = Path(__file__).resolve().parent.parent / "scripts" / "attack_experiment.py"
    done = subprocess.run(
        [sys.executable, str(script), "--instances", "2", "--max-key-bytes", "1"],
        capture_output=True, text=True, check=True,
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
