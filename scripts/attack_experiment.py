#!/usr/bin/env python3
"""Desk-scale brute-force experiment.

Generates random known-plaintext instances, recovers the keys by exhaustive
search, measures the achieved guess rate, and then extrapolates that rate to
the full 64-bit keyspace with the exact estimator.  Then reads an 8-byte
key off one known block with `recover_key`, which needs no search at all,
and prints the nominal keyspace beside that effective one.
"""

import argparse
import random
import time
from fractions import Fraction

from wsncrypt.cipher import encrypt
from wsncrypt.keyspace import (
    MODE_AVERAGE,
    AttackModel,
    estimate_brute_force,
    exhaustive_search,
    recover_key,
)


def run_searches(key_len: int, instances: int, rng: random.Random):
    total_keys_tried = 0
    total_seconds = 0.0
    for _ in range(instances):
        key = rng.randbytes(key_len)
        plaintext = rng.randbytes(16)
        ciphertext = encrypt(plaintext, key)
        start = time.perf_counter()
        found = exhaustive_search(plaintext, ciphertext, key_len)
        total_seconds += time.perf_counter() - start
        assert found == key, "search must recover the generating key"
        # lexicographic scan stops at the key, so that many were tried
        total_keys_tried += int.from_bytes(key, "big") + 1
    return total_keys_tried, total_seconds


def count(text: str) -> int:
    """A count of at least 1: the measured rate divides by what it saw."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=count, default=20)
    parser.add_argument("--max-key-bytes", type=int, default=2,
                        choices=(1, 2, 3))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    grand_keys = 0
    grand_seconds = 0.0
    for key_len in range(1, args.max_key_bytes + 1):
        tried, seconds = run_searches(key_len, args.instances, rng)
        rate = tried / seconds if seconds else float("inf")
        print(f"{key_len}-byte keys: {args.instances} instances, "
              f"{tried} keys tried in {seconds:.3f}s "
              f"({rate:,.0f} keys/s)")
        grand_keys += tried
        grand_seconds += seconds

    measured = Fraction(grand_keys) / Fraction(grand_seconds).limit_denominator(10**6)
    estimate = estimate_brute_force(
        AttackModel(key_length_bits=64, keys_per_second=measured,
                    mode=MODE_AVERAGE)
    )
    print(f"\nmeasured rate: {float(measured):,.0f} keys/s")
    print(f"at that rate, an average 64-bit search takes "
          f"{estimate.years_floor:,} years")

    # the cheap attack: one known block gives the key directly
    key = rng.randbytes(8)
    plaintext = rng.randbytes(24)
    ciphertext = encrypt(plaintext, key)
    recovered = recover_key(plaintext, ciphertext, len(key))
    print(f"\nkeystream recovery from one {len(plaintext)}-byte block: "
          f"key {key.hex()} recovered as {recovered.hex()} "
          f"({'match' if recovered == key else 'MISMATCH'}) in O(n), no search")
    print(f"nominal keyspace: 2^{8 * len(key)} keys of {len(key)} bytes")
    # a known block at least as long as the key leaves one key that fits
    print(f"effective keyspace: 2^0 = 1 key, given one known block of "
          f"at least {len(key)} bytes")


if __name__ == "__main__":
    main()
