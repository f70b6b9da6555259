"""Deterministic 64-bit multiply-xor-shift mixing (splitmix64 finalizer).

Everything that needs reproducible pseudo-random bytes (sensor values,
seeded key generation) goes through the mixer, so a (seed, ...) tuple always
produces the same bytes on every platform.  `mix64` and `derive_bytes` are
the definitions; `mix64_lanes` runs the same mixer over many words packed
into one integer, for callers that mix words by the dozen.
"""

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# the finalizer: two rounds of x ^= x >> shift, x *= multiplier, then a shift
_SHIFT1, _MUL1 = 30, 0xBF58476D1CE4E5B9
_SHIFT2, _MUL2 = 27, 0x94D049BB133111EB
_SHIFT3 = 31


def mix64(x: int) -> int:
    """Finalizing mixer: multiply-xor-shift over 64 bits."""
    x &= MASK64
    x = ((x ^ (x >> _SHIFT1)) * _MUL1) & MASK64
    x = ((x ^ (x >> _SHIFT2)) * _MUL2) & MASK64
    return x ^ (x >> _SHIFT3)


def mix64_lanes(x: int, mask: int) -> int:
    """`mix64` of every 128-bit lane of `x` at once.

    `mask` is MASK64 repeated every 128 bits, once per lane.  A lane's word
    sits in its low 64 bits; its high 64 bits are dropped on entry and come
    back zero.  Each word times a multiplier fits its own lane, and masking
    after every shift keeps a lane's bits out of its neighbour, so lane i of
    the result is `mix64` of lane i of `x`.
    """
    x &= mask
    x = (((x ^ (x >> _SHIFT1)) & mask) * _MUL1) & mask
    x = (((x ^ (x >> _SHIFT2)) & mask) * _MUL2) & mask
    return x ^ ((x >> _SHIFT3) & mask)


def derive_bytes(seed: int, length: int) -> bytes:
    """First `length` bytes of the mix64 stream seeded by `seed`."""
    words = -(-length // 8)
    acc = 0
    for i in range(1, words + 1):
        acc = (acc << 64) | mix64((seed + i * GOLDEN) & MASK64)
    return acc.to_bytes(8 * words, "big")[:length]
