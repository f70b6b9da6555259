"""Deterministic 64-bit multiply-xor-shift mixing (splitmix64 finalizer).

Everything that needs reproducible pseudo-random bytes (sensor values,
seeded key generation) goes through these two functions, so a (seed, ...)
tuple always produces the same bytes on every platform.
"""

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """Finalizing mixer: multiply-xor-shift over 64 bits."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive_bytes(seed: int, length: int) -> bytes:
    """First `length` bytes of the mix64 stream seeded by `seed`."""
    words = -(-length // 8)
    acc = 0
    for i in range(1, words + 1):
        acc = (acc << 64) | mix64((seed + i * GOLDEN) & MASK64)
    return acc.to_bytes(8 * words, "big")[:length]
