"""Straight-line, one-bit-at-a-time reference implementation of the cipher.

Deliberately naive: every stage walks the bit lists one element at a time
and the key-directed stage keeps its literal conditional form ("if the key
bit is set, flip the message bit, otherwise leave it").  The production
code is checked against this, so nothing here may import from wsncrypt.
"""


def ref_bytes_to_bits(data):
    bits = []
    for byte in data:
        for shift in (7, 6, 5, 4, 3, 2, 1, 0):
            bits.append((byte >> shift) & 1)
    return bits


def ref_bits_to_bytes(bits):
    assert len(bits) % 8 == 0
    out = []
    for i in range(0, len(bits), 8):
        value = 0
        for bit in bits[i : i + 8]:
            value = (value << 1) | bit
        out.append(value)
    return bytes(out)


def ref_swap(bits):
    out = list(bits)
    i = 0
    while i + 1 < len(out):
        out[i], out[i + 1] = out[i + 1], out[i]
        i += 2
    return out


def ref_encrypt(plaintext, key):
    key_bits = ref_swap(ref_bytes_to_bits(key))
    message_bits = ref_swap(ref_bytes_to_bits(plaintext))
    out = []
    for i, bit in enumerate(message_bits):
        if key_bits[i % len(key_bits)] == 1:
            bit = bit ^ 1
        else:
            pass  # key bit clear: leave the message bit untouched
        out.append(bit)
    out = [bit ^ 1 for bit in out]
    return ref_bits_to_bytes(out)


def ref_decrypt(ciphertext, key):
    key_bits = ref_swap(ref_bytes_to_bits(key))
    bits = ref_bytes_to_bits(ciphertext)
    bits = [bit ^ 1 for bit in bits]
    out = []
    for i, bit in enumerate(bits):
        if key_bits[i % len(key_bits)] == 1:
            bit = bit ^ 1
        out.append(bit)
    out = ref_swap(out)
    return ref_bits_to_bytes(out)


def exhaustive_search_reference(
    known_plaintext, ciphertext, key_length_bytes, encrypt=ref_encrypt
):
    """The scan `wsncrypt.keyspace.exhaustive_search` must equal: one full
    `encrypt` call per candidate key, smallest first.

    `encrypt` defaults to the bit-at-a-time `ref_encrypt`; differential tests
    pass the production cipher, itself gated bit-exact against it, so that a
    2-byte scan stays fast.
    """
    for candidate in range(1 << (8 * key_length_bytes)):
        key = candidate.to_bytes(key_length_bytes, "big")
        if encrypt(known_plaintext, key) == ciphertext:
            return key
    return None
