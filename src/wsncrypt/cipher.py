"""Lightweight secret-key cipher built from three bit-level primitives.

The pipeline works on bit streams (MSB-first within each source byte):

    encrypt:  bytes -> bits -> adjacent_swap -> XOR with the adjacent-swapped,
              cyclically repeated key bits -> complement -> bytes
    decrypt:  bytes -> bits -> complement -> XOR with the same keystream
              -> adjacent_swap -> bytes

Every stage is a position permutation or a per-bit XOR, so ciphertext length
always equals plaintext length and the two directions are exact inverses.

The public `encrypt`/`decrypt` take any bytes-like message and key and
return bytes.  The adjacent swap stays inside each byte and is linear over
XOR, and the complement is an XOR with all ones, so both directions are one
byte map, ``SWAP_NOT[x_j] ^ s_(j mod L)`` with SWAP_NOT the complemented
swap table: encrypt maps the plaintext with s = swap(k), decrypt maps the
ciphertext with s = k.  A 1-byte stream is one translate of the whole
message through its own 256-entry table, at every length.  Longer streams
take one length fork.  From `_BULK` bytes up, each of the L stream bytes
gets its own table and translates every L-th byte; shorter messages
(simulator frames, the block that confirms a key search's hit) cost less
as one SWAP_NOT translate and one message-wide integer XOR.  The bit-stream
functions below are the definitional forms; the tests prove every path
equal to them and to a bit-at-a-time reference.

`encryptor(key)` and `decryptor(key)` check the key and build its stream
once and return the map as a function of the message, for a caller that
ciphers many messages under one key (the simulator, per sink and run);
`encrypt` and `decrypt` build one per call.

Output byte j depends only on input byte j and j mod L, so a caller may
cut a long input into chunks whose lengths are multiples of L and cipher
each on its own: the joined results equal one call on the whole input.
The CLI streams files this way, each chunk into one reused `out` buffer.

This is a toy cipher: one known plaintext block leaks the whole keystream
(see `wsncrypt.keyspace`).  Do not use it to protect anything real.
"""

from __future__ import annotations

from typing import List, Sequence

MAX_KEY_BYTES = 32

# Swap bit pairs (0,1), (2,3), (4,5), (6,7) of the MSB-first bit order.
_SWAP_TABLE = bytes(((b & 0x55) << 1) | ((b & 0xAA) >> 1) for b in range(256))

# Each byte's 8 bits, MSB first, one bit value per byte.
_BITS = tuple(bytes((b >> shift) & 1 for shift in range(7, -1, -1)) for b in range(256))

# Measured crossover: from here up the per-key-byte tables beat the
# big-integer path for every key length 1..32.
_BULK = 32 * 1024

# The swap and the final complement in one lookup.
_SWAP_NOT_TABLE = bytes(s ^ 0xFF for s in _SWAP_TABLE)

# The bulk path's table for stream byte k, SWAP_NOT with every entry XORed
# with k, for all 256 k: SWAP_NOT and 256 copies of byte 0x01 as 2048-bit
# integers make each table one integer XOR.
_SWAP_NOT = int.from_bytes(_SWAP_NOT_TABLE, "big")
_EVERY_BYTE = int.from_bytes(b"\x01" * 256, "big")
_TABLES = tuple((_SWAP_NOT ^ k * _EVERY_BYTE).to_bytes(256, "big") for k in range(256))


class EmptyKeyError(ValueError):
    """Key is empty; the keystream would be undefined."""


class KeyLengthError(ValueError):
    """Key exceeds the supported maximum of MAX_KEY_BYTES bytes."""


class NonByteAlignedError(ValueError):
    """Bit stream length is not a multiple of 8."""


def _as_bytes(data: bytes) -> bytes:
    """`data` itself when it is bytes or a bytearray, else a bytes copy of
    any other bytes-like value, such as a memoryview.  Not ``bytes(data)``,
    which would turn an int n into n zero bytes: what is not bytes-like
    raises TypeError."""
    if isinstance(data, (bytes, bytearray)):
        return data
    return memoryview(data).tobytes()


def _check_key(key: bytes) -> bytes:
    """The key as bytes (`_as_bytes`), once its length is checked."""
    if type(key) is not bytes:  # the test alone is cheaper than the call
        key = _as_bytes(key)
    if len(key) == 0:
        raise EmptyKeyError("key must be at least 1 byte")
    if len(key) > MAX_KEY_BYTES:
        raise KeyLengthError(
            f"key is {len(key)} bytes, maximum is {MAX_KEY_BYTES}"
        )
    return key


def bytes_to_bits(data: bytes) -> List[int]:
    """Expand bytes into a flat bit list, MSB first within each byte."""
    return list(b"".join(map(_BITS.__getitem__, data)))


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack a bit stream back into bytes; inverse of `bytes_to_bits`."""
    if len(bits) % 8 != 0:
        raise NonByteAlignedError(
            f"stream of {len(bits)} bits is not byte aligned"
        )
    out = bytearray()
    for i in range(0, len(bits), 8):
        value = 0
        for bit in bits[i : i + 8]:
            value = (value << 1) | (bit & 1)
        out.append(value)
    return bytes(out)


def adjacent_swap(bits: Sequence[int]) -> List[int]:
    """Interchange the bits at even and odd indices, pair by pair.

    Self-inverse.  An odd-length stream keeps its final bit in place; byte
    input can never produce one, but the operation stays total.
    """
    out = list(bits)
    for i in range(0, len(out) - 1, 2):
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def key_directed_xor(message: Sequence[int], key: Sequence[int]) -> List[int]:
    """XOR each message bit with the key bit at the same index, cycling the
    key when the message is longer.

    A set key bit flips the message bit; a clear one leaves it alone, which
    is exactly XOR, so the conditional form and this one coincide.
    """
    if len(key) == 0:
        raise EmptyKeyError("key stream must be non-empty")
    n = len(key)
    return [m ^ key[i % n] for i, m in enumerate(message)]


def complement(bits: Sequence[int]) -> List[int]:
    """Invert every bit."""
    return [b ^ 1 for b in bits]


def encryptor(key: bytes):
    """`encrypt` under `key`, with the key checked and its stream built
    once: returns ``cipher(plaintext, out=None)``, which is
    ``encrypt(plaintext, key, out)``."""
    key = _check_key(key)
    # ~swap(p ^ k) == SWAP_NOT[p] ^ swap(k): the swap is linear.
    return _stream_map(key.translate(_SWAP_TABLE))


def decryptor(key: bytes):
    """`decrypt` under `key`, as `encryptor` gives `encrypt`."""
    key = _check_key(key)
    # swap(~c ^ swap(k)) == SWAP_NOT[c] ^ k.
    return _stream_map(key)


def _stream_map(stream_key: bytes):
    """The map of byte j of `data` to ``SWAP_NOT[data[j]] ^ stream_key[j %
    L]``, as a function ``(data, out=None)``.

    Below `_BULK` the repeated stream is one integer, built at the first
    message's length and rebuilt only when a longer one comes, so it stays
    under `_BULK` + L bytes; a message takes its first n bytes in one shift.
    """
    step, table = len(stream_key), _TABLES[stream_key[0]]
    prepared = (0, 0)  # (size in bytes, the stream repeated to that size)

    def cipher(data, out=None):
        nonlocal prepared
        if type(data) is not bytes:
            data = _as_bytes(data)
        n = len(data)
        if out is not None:  # see `encrypt`; measured and filled in bytes
            if type(out) is not bytearray:  # a strided view is taken as it is
                out = memoryview(out)
                if out.c_contiguous:
                    out = out.cast("B")
            if len(out) < n:
                raise ValueError(f"out holds {len(out)} of the message's {n} bytes")
        if step == 1:
            result = data.translate(table)
        elif n < _BULK:
            size, stream = prepared
            if n > size:
                repeats = -(-n // step)
                size = repeats * step
                stream = int.from_bytes(stream_key * repeats, "big")
                prepared = size, stream
            value = int.from_bytes(data.translate(_SWAP_NOT_TABLE), "big")
            result = (value ^ (stream >> 8 * (size - n))).to_bytes(n, "big")
        else:  # each stream byte's table, into a bytearray: a memoryview takes
            # an extended slice element by element, so it gets one copy below
            result = out if type(out) is bytearray else bytearray(n)
            for i, k in enumerate(stream_key):
                result[i:n:step] = data[i::step].translate(_TABLES[k])
        if out is None:
            return bytes(result)  # a translate keeps a bytearray's type
        if result is not out:
            out[:n] = result
        return memoryview(out)[:n]

    return cipher


def encrypt(plaintext: bytes, key: bytes, out=None) -> bytes:
    """Encrypt: swap adjacent bits, XOR with the swapped key stream, invert.

    Equivalent to
    ``bits_to_bytes(complement(key_directed_xor(adjacent_swap(bytes_to_bits(
    plaintext)), adjacent_swap(bytes_to_bits(key)))))`` but byte-at-a-time.
    Given `out`, a writable buffer no shorter than the plaintext (else
    ValueError), fills its first n bytes and returns a memoryview of them.
    """
    return encryptor(key)(plaintext, out)


def decrypt(ciphertext: bytes, key: bytes, out=None) -> bytes:
    """Exact inverse of `encrypt` under the same key; `out` as in `encrypt`."""
    return decryptor(key)(ciphertext, out)
