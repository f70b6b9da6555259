#!/usr/bin/env python3
"""Desk-scale brute-force experiment.

Generates random known-plaintext instances and recovers their keys with
`exhaustive_search`.  Then times a brute force blind to the cipher's
structure, one `encrypt` and one compare per candidate key, and extrapolates
that trial rate to the full 64-bit keyspace with the exact estimator.  Last,
reads an 8-byte key off one known block with `recover_key`, which needs no
search at all, and prints the nominal keyspace beside that effective one.
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

# Candidates the structure-blind loop tries to measure its rate.
TRIALS = 1 << 16


def run_searches(key_len: int, instances: int, rng: random.Random) -> float:
    seconds = 0.0
    for _ in range(instances):
        key = rng.randbytes(key_len)
        plaintext = rng.randbytes(16)
        ciphertext = encrypt(plaintext, key)
        start = time.perf_counter()
        found = exhaustive_search(plaintext, ciphertext, key_len)
        seconds += time.perf_counter() - start
        assert found == key, "search must recover the generating key"
    return seconds


def trial_rate(rng: random.Random) -> tuple[int, Fraction]:
    """Trials run and trials/s over consecutive 8-byte candidates, each one
    `encrypt` of a 16-byte block and one compare, stopping early on a hit."""
    plaintext = rng.randbytes(16)
    ciphertext = encrypt(plaintext, rng.randbytes(8))
    start = time.perf_counter()
    for candidate in range(TRIALS):
        if encrypt(plaintext, candidate.to_bytes(8, "big")) == ciphertext:
            break
    seconds = time.perf_counter() - start
    return candidate + 1, Fraction(candidate + 1) / Fraction(seconds)


def count(text: str) -> int:
    """A count of at least 1."""
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
    for key_len in range(1, args.max_key_bytes + 1):
        seconds = run_searches(key_len, args.instances, rng)
        print(f"{key_len}-byte keys: {args.instances} instances, every key "
              f"recovered by exhaustive_search in {seconds * 1e3:.3f} ms")

    trials, rate = trial_rate(rng)
    estimate = estimate_brute_force(
        AttackModel(key_length_bits=64, keys_per_second=rate,
                    mode=MODE_AVERAGE)
    )
    print(f"\nstructure-blind trial rate: {float(rate):,.0f} keys/s "
          f"({trials:,} trials, one encrypt of a 16-byte block and one "
          f"compare each)")
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
