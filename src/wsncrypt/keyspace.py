"""Brute-force cost arithmetic and desk-scale attack oracles.

`estimate_brute_force` reproduces the usual back-of-envelope keyspace math
with exact integers (2**n keyspace, rational seconds and years, 365-day
year).  The two attack functions demonstrate how weak the cipher actually
is: one plaintext/ciphertext pair algebraically yields the full keystream,
and short keys fall to an exhaustive scan in well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .cipher import _SWAP_NOT_TABLE, encrypt

SECONDS_PER_YEAR = 86400 * 365

MODE_AVERAGE = "average"
MODE_WORST_CASE = "worst_case"

MAX_SEARCH_KEY_BYTES = 3  # keeps the scan within 2**24 candidates

# ASCII binary digits -> bit values
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


class LengthMismatchError(ValueError):
    """Plaintext and ciphertext lengths differ (or are zero)."""


class KeyLengthOutOfRangeError(ValueError):
    """Requested search key length outside 1..MAX_SEARCH_KEY_BYTES."""


@dataclass(frozen=True)
class AttackModel:
    """Attacker profile: key size, guess rate, and expected-vs-worst mode."""

    key_length_bits: int
    keys_per_second: Fraction
    mode: str = MODE_AVERAGE

    def __post_init__(self) -> None:
        if self.key_length_bits < 1:
            raise ValueError("key_length_bits must be >= 1")
        if self.keys_per_second <= 0:
            raise ValueError("keys_per_second must be > 0")
        if self.mode not in (MODE_AVERAGE, MODE_WORST_CASE):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class BruteForceEstimate:
    total_keys: int
    seconds: Fraction
    years: Fraction

    @property
    def years_floor(self) -> int:
        return self.years.numerator // self.years.denominator


def estimate_brute_force(model: AttackModel) -> BruteForceEstimate:
    """Time to enumerate the keyspace at the model's guess rate.

    Average mode charges half the keyspace, worst case all of it.  All
    arithmetic is exact; callers floor for integer reporting.
    """
    total = 1 << model.key_length_bits
    tried = Fraction(total, 2) if model.mode == MODE_AVERAGE else Fraction(total)
    seconds = tried / Fraction(model.keys_per_second)
    return BruteForceEstimate(
        total_keys=total,
        seconds=seconds,
        years=seconds / SECONDS_PER_YEAR,
    )


def recover_keystream(known_plaintext: bytes, ciphertext: bytes) -> List[int]:
    """Recover the repeating raw key bit stream from one known block.

    Undoing the final swap and the complement of the ciphertext leaves
    plaintext XOR keystream; XORing the plaintext back out yields the key
    bits, cyclically repeated to the message length.  All of that is done on
    whole bytes; only the result is expanded to bits.  Re-encrypting the
    plaintext under any key whose repetition matches this stream reproduces
    the ciphertext exactly.
    """
    if len(known_plaintext) == 0 or len(known_plaintext) != len(ciphertext):
        raise LengthMismatchError(
            "plaintext and ciphertext must be the same non-zero length"
        )
    undone = ciphertext.translate(_SWAP_NOT_TABLE)
    stream = int.from_bytes(undone, "big") ^ int.from_bytes(known_plaintext, "big")
    width = 8 * len(ciphertext)
    # zero-padded binary digits are the bits MSB first
    return list(format(stream, f"0{width}b").encode().translate(_DIGIT_BITS))


def exhaustive_search(
    known_plaintext: bytes,
    ciphertext: bytes,
    key_length_bytes: int,
) -> Optional[bytes]:
    """Try every key of the given length, smallest first.

    Returns the lexicographically smallest key that encrypts the plaintext
    to the ciphertext, or None.  The match is confirmed with a real
    `encrypt` call before being returned.
    """
    if not 1 <= key_length_bytes <= MAX_SEARCH_KEY_BYTES:
        raise KeyLengthOutOfRangeError(
            f"key_length_bytes must be in 1..{MAX_SEARCH_KEY_BYTES}"
        )
    if (
        len(known_plaintext) != len(ciphertext)
        or len(known_plaintext) < key_length_bytes
    ):
        raise LengthMismatchError(
            "need equal-length plaintext/ciphertext at least as long as the key"
        )
    for candidate in range(1 << (8 * key_length_bytes)):
        key = candidate.to_bytes(key_length_bytes, "big")
        if encrypt(known_plaintext, key) == ciphertext:
            return key
    return None
