"""Brute-force cost arithmetic and desk-scale attack oracles.

`estimate_brute_force` reproduces the usual back-of-envelope keyspace math
with exact integers (2**n keyspace, rational seconds and years, 365-day
year).  The attack functions demonstrate how weak the cipher actually
is: one plaintext/ciphertext pair algebraically yields the full keystream,
and short keys fall to an exhaustive scan.

That keystream is a key of at most MAX_KEY_BYTES bytes repeated over the
block, so it has a period of at most MAX_KEY_BYTES (`_key_period`), and
`recover_keystream` expands only that one period to bits.

`recover_key` reads the key itself off the first period of that stream:
one known block at least as long as the key leaves exactly one key of that
length, so the effective keyspace of a known-plaintext attack is 1, whatever
the nominal 2**(8 * L).

`exhaustive_search` is the brute-force rate meter, so it scans the way a
careful attacker would: many candidates per machine operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .cipher import _SWAP_NOT_TABLE, MAX_KEY_BYTES, _as_bytes, bytes_to_bits, encrypt

SECONDS_PER_YEAR = 86400 * 365

MODE_AVERAGE = "average"
MODE_WORST_CASE = "worst_case"

MAX_SEARCH_KEY_BYTES = 3  # keeps the scan within 2**24 candidates

# Candidates tested per pass of the exhaustive scan.  A power of two that
# divides 2**(8 * L) for every searched key length L, so the last pass ends on
# the last key and no lane's count carries into its neighbour.
SEARCH_LANES = 256
# A lane repeats its candidate over the whole key periods within this many
# leading bytes of the block; the confirming `encrypt` checks the rest.
SEARCH_LANE_BYTES = 16


class LengthMismatchError(ValueError):
    """Plaintext and ciphertext lengths differ (or are zero)."""


class KeyLengthOutOfRangeError(ValueError):
    """Requested key length outside 1..MAX_SEARCH_KEY_BYTES for the search,
    or outside 1..MAX_KEY_BYTES for `recover_key`."""


class NoKeyFitsError(ValueError):
    """No key of the requested length, or of at most MAX_KEY_BYTES bytes,
    encrypts the plaintext to the ciphertext."""


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


def _raw_keystream(known_plaintext: bytes, ciphertext: bytes) -> bytes:
    """The raw key, cyclically repeated over the block.

    Decryption maps byte j to ``SWAP_NOT[c_j] ^ k_(j mod L)``, so SWAP_NOT
    of the ciphertext XOR the plaintext is the key stream: any key whose
    repetition equals it encrypts the plaintext to the ciphertext.  Raises
    LengthMismatchError unless the two have the same non-zero length.
    """
    known_plaintext, ciphertext = _as_bytes(known_plaintext), _as_bytes(ciphertext)
    n = len(known_plaintext)
    if n == 0 or n != len(ciphertext):
        raise LengthMismatchError(
            "plaintext and ciphertext must be the same non-zero length"
        )
    undone = int.from_bytes(ciphertext.translate(_SWAP_NOT_TABLE), "big")
    return (undone ^ int.from_bytes(known_plaintext, "big")).to_bytes(n, "big")


def _key_period(raw: bytes) -> int:
    """The shortest period of `raw` of at most MAX_KEY_BYTES, else len(raw).

    p is a period when ``raw[p:] == raw[:-p]``.  Every candidate p is at
    most ``last`` and leaves at least ``w`` bytes after it, so a true period
    repeats the first ``w`` bytes at p: one bounded `find` of them proposes
    the candidates in increasing order, and only the whole-block compare
    accepts one.  A block with no short period costs a `find` within its
    first 2 * MAX_KEY_BYTES bytes, plus a compare for each chance match.
    """
    n = len(raw)
    last = min(MAX_KEY_BYTES, n - 1)
    w = min(MAX_KEY_BYTES, n - last)
    head = raw[:w]
    p = raw.find(head, 1, last + w)
    while p > 0:
        if raw[p:] == raw[:-p]:
            return p
        p = raw.find(head, p + 1, last + w)
    return n


def recover_keystream(known_plaintext: bytes, ciphertext: bytes) -> List[int]:
    """Recover the repeating raw key bit stream from one known block.

    The stream is worked out on whole bytes.  It is the key repeated over
    the block, so only its shortest period of at most MAX_KEY_BYTES bytes
    (`_key_period`) is expanded to bits, one list that is then repeated and
    cut to one bit per bit of the message.  A block with no such period,
    such as a ciphertext not made from the plaintext, has the whole block
    as its period and is expanded in full.
    """
    raw = _raw_keystream(known_plaintext, ciphertext)
    n = len(raw)
    period = _key_period(raw)
    bits = bytes_to_bits(raw[:period])
    # in place: a trimmed copy of the block's list costs more than it saves
    bits *= -(-n // period)
    del bits[8 * n:]
    return bits


def recover_key(
    known_plaintext: bytes,
    ciphertext: bytes,
    key_len: Optional[int] = None,
) -> bytes:
    """The key that encrypts the plaintext to the ciphertext, read off the
    block's raw keystream with no search.

    With ``key_len``, the key is the stream's first ``key_len`` bytes, and
    it fits when the stream repeats with that period over the whole block.
    Without it, the key is the stream's shortest period (`_key_period`): the
    shortest of the equivalent keys, so key ``5a5a`` comes back as ``5a``.
    Raises NoKeyFitsError when no such key exists.
    """
    raw = _raw_keystream(known_plaintext, ciphertext)
    if key_len is None:
        key_len = _key_period(raw)
        if key_len > MAX_KEY_BYTES:
            raise NoKeyFitsError(
                f"no key of at most {MAX_KEY_BYTES} bytes fits the block"
            )
    else:
        if not 1 <= key_len <= MAX_KEY_BYTES:
            raise KeyLengthOutOfRangeError(f"key_len must be in 1..{MAX_KEY_BYTES}")
        if len(raw) < key_len:
            raise LengthMismatchError("the block is shorter than the key")
        if raw[key_len:] != raw[:-key_len]:
            raise NoKeyFitsError(f"no key of {key_len} bytes fits the block")
    return raw[:key_len]


def exhaustive_search(
    known_plaintext: bytes,
    ciphertext: bytes,
    key_length_bytes: int,
) -> Optional[bytes]:
    """Try every key of the given length, smallest first.

    Returns the lexicographically smallest key that encrypts the plaintext
    to the ciphertext, or None.

    The scan tests SEARCH_LANES consecutive candidates per pass against one
    lane table built once per call.  Lane i of the table is ``i * repunit``
    over ``width`` bytes, the whole key periods within the block's first
    SEARCH_LANE_BYTES (at least one period), where ``repunit`` has a 1 in the
    low byte of every period.  A pass starts at ``first``, a multiple of
    SEARCH_LANES = 256, so ``first``'s low byte is 0 and adding ``i < 256``
    carries nothing: ``(first + i) * repunit == first * repunit ^ i *
    repunit``.  Candidate ``first + i`` repeats to the stream's first
    ``width`` bytes exactly when lane i equals the needle ``target ^ first *
    repunit``, with ``target`` those stream bytes.  The table holds the lanes
    in candidate order, so the first lane-aligned `find` of the needle is the
    smallest such candidate.  It is confirmed with a real `encrypt` over the
    whole block; if it fails, the scan goes on after its lane.
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
    n = len(known_plaintext)
    # n >= key length, and every searched key fits SEARCH_LANE_BYTES
    periods = min(n, SEARCH_LANE_BYTES) // key_length_bytes
    width = periods * key_length_bytes
    target = int.from_bytes(
        _raw_keystream(known_plaintext[:width], ciphertext[:width]), "big"
    )
    period = bytes(key_length_bytes - 1) + b"\x01"
    repunit = int.from_bytes(period * periods, "big")
    counters = bytearray(width * SEARCH_LANES)
    counters[width - 1::width] = range(SEARCH_LANES)  # i in lane i's low byte
    lanes = (int.from_bytes(counters, "big") * repunit).to_bytes(len(counters), "big")
    for first in range(0, 1 << (8 * key_length_bytes), SEARCH_LANES):
        needle = (target ^ first * repunit).to_bytes(width, "big")
        at = lanes.find(needle)
        while at >= 0:
            if at % width == 0:
                key = (first + at // width).to_bytes(key_length_bytes, "big")
                if encrypt(known_plaintext, key) == ciphertext:
                    return key
            at = lanes.find(needle, at - at % width + width)
    return None
