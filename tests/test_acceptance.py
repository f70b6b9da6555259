"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured cost (run with -s to see them as they go).

Every tolerance and case count is pinned here; loosening any of them is a
release decision, not a test fix.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import wsncrypt.cli as cli
from wsncrypt.cipher import (
    adjacent_swap,
    bits_to_bytes,
    bytes_to_bits,
    complement,
    decrypt,
    encrypt,
    key_directed_xor,
)
from wsncrypt.keyspace import (
    MODE_WORST_CASE,
    AttackModel,
    estimate_brute_force,
    exhaustive_search,
    recover_keystream,
)
from wsncrypt.sim import load_config, report_to_dict, run_simulation
from wsncrypt.wire import (
    DecodeError,
    Frame,
    ReadingKind,
    SensorReading,
    decode_frame,
    decode_readings,
    encode_frame,
    encode_readings,
)

from reference import ref_decrypt, ref_encrypt, ref_swap

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "demo.json"


def _report(number: int, description: str, elapsed: float) -> None:
    print(f"criterion {number:2d} PASS ({elapsed:8.4f}s): {description}")


def bits(text: str):
    return [int(c) for c in text]


def test_criterion_01_encryption_table():
    start = time.perf_counter()
    key_shuffled = adjacent_swap(bytes_to_bits(bytes([90])))
    assert key_shuffled == bits("10100101")
    for byte, shuffled, xored, inverted, out in (
        (65, "10000010", "00100111", "11011000", 216),
        (66, "10000001", "00100100", "11011011", 219),
    ):
        stage1 = adjacent_swap(bytes_to_bits(bytes([byte])))
        assert stage1 == bits(shuffled)
        stage2 = key_directed_xor(stage1, key_shuffled)
        assert stage2 == bits(xored)
        stage3 = complement(stage2)
        assert stage3 == bits(inverted)
        assert bits_to_bytes(stage3) == bytes([out])
    assert encrypt(bytes([65, 66]), bytes([90])) == bytes([216, 219])
    elapsed = time.perf_counter() - start
    assert elapsed < 0.001
    _report(1, "single-byte encryption table, all intermediate stages", elapsed)


def test_criterion_02_decryption_table():
    start = time.perf_counter()
    key_shuffled = adjacent_swap(bytes_to_bits(bytes([90])))
    for byte, inverted, xored, shuffled, out in (
        (216, "00100111", "10000010", "01000001", 65),
        (219, "00100100", "10000001", "01000010", 66),
    ):
        stage1 = complement(bytes_to_bits(bytes([byte])))
        assert stage1 == bits(inverted)
        stage2 = key_directed_xor(stage1, key_shuffled)
        assert stage2 == bits(xored)
        stage3 = adjacent_swap(stage2)
        assert stage3 == bits(shuffled)
        assert bits_to_bytes(stage3) == bytes([out])
    assert decrypt(bytes([216, 219]), bytes([90])) == bytes([65, 66])
    elapsed = time.perf_counter() - start
    assert elapsed < 0.001
    _report(2, "single-byte decryption table, all intermediate stages", elapsed)


def test_criterion_03_keyspace_arithmetic():
    start = time.perf_counter()
    average = estimate_brute_force(
        AttackModel(key_length_bits=64, keys_per_second=Fraction(10**6))
    )
    assert average.total_keys == 2**64
    assert average.years == Fraction(2**63, 10**6 * 31_536_000)
    assert average.years_floor == 292471
    worst = estimate_brute_force(
        AttackModel(key_length_bits=64, keys_per_second=Fraction(10**6),
                    mode=MODE_WORST_CASE)
    )
    assert worst.years_floor == 584942
    elapsed = time.perf_counter() - start
    _report(3, "64-bit keyspace: 292471 average / 584942 worst-case years",
            elapsed)


def test_criterion_04_round_trip_10000():
    rng = random.Random(0xC0FFEE)
    start = time.perf_counter()
    for _ in range(10_000):
        plaintext = rng.randbytes(rng.randrange(0, 4097))
        key = rng.randbytes(rng.randrange(1, 33))
        assert decrypt(encrypt(plaintext, key), key) == plaintext
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, "10,000 random round trips (plaintext <= 4 KiB, key 1..32)",
            elapsed)


def test_criterion_05_reference_equivalence():
    rng = random.Random(0xFACADE)
    start = time.perf_counter()
    for _ in range(1_000):
        plaintext = rng.randbytes(rng.randrange(0, 65))
        key = rng.randbytes(rng.randrange(1, 33))
        ciphertext = encrypt(plaintext, key)
        assert ciphertext == ref_encrypt(plaintext, key)
        assert decrypt(ciphertext, key) == ref_decrypt(ciphertext, key)
    for m in range(256):
        plaintext = bytes([m])
        for k in range(256):
            key = bytes([k])
            assert encrypt(plaintext, key) == ref_encrypt(plaintext, key)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(5, "bit-at-a-time reference equality: 1,000 random + 256x256"
               " exhaustive", elapsed)


def test_criterion_06_involution_and_collapse():
    rng = random.Random(0xBEEF)
    start = time.perf_counter()
    for _ in range(10_000):
        stream = [rng.randrange(2) for _ in range(rng.randrange(0, 130))]
        assert adjacent_swap(adjacent_swap(stream)) == stream

    # one pass per key over the concatenation of every 2-byte plaintext;
    # the keystream of a 1-byte key has byte period 1, so block i of the
    # big ciphertext is exactly encrypt(block_i, key)
    all_pairs = b"".join(i.to_bytes(2, "big") for i in range(65536))
    swap_table = bytes(
        bits_to_bytes(ref_swap(bytes_to_bits(bytes([b]))))[0] for b in range(256)
    )
    block_sample = rng.sample(range(65536), 64)
    for k in range(256):
        key = bytes([k])
        got = encrypt(all_pairs, key)
        collapsed = all_pairs.translate(
            bytes(swap_table[b ^ k ^ 0xFF] for b in range(256))
        )
        assert got == collapsed
        for i in block_sample:  # concatenation trick spot-check
            block = all_pairs[2 * i : 2 * i + 2]
            assert encrypt(block, key) == got[2 * i : 2 * i + 2]
        for byte in range(256):  # 1-byte plaintexts, individually
            assert encrypt(bytes([byte]), key) == bytes(
                [swap_table[(byte ^ k) ^ 0xFF]]
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(6, "swap involution x10,000; swap/complement/XOR collapse over"
               " all 1- and 2-byte plaintexts x 256 keys", elapsed)


def test_criterion_07_attack_oracles():
    rng = random.Random(0xA11ACE)
    start = time.perf_counter()
    for index in range(100):
        key_len = 1 if index % 2 == 0 else 2
        key = rng.randbytes(key_len)
        plaintext = rng.randbytes(rng.randrange(key_len, 17))
        ciphertext = encrypt(plaintext, key)
        single_start = time.perf_counter()
        found = exhaustive_search(plaintext, ciphertext, key_len)
        single_elapsed = time.perf_counter() - single_start
        assert single_elapsed < 2.0
        assert found == key
        assert encrypt(plaintext, found) == ciphertext

    for _ in range(1_000):
        key = rng.randbytes(rng.randrange(1, 33))
        plaintext = rng.randbytes(rng.randrange(len(key), 65))
        ciphertext = encrypt(plaintext, key)
        stream = recover_keystream(plaintext, ciphertext)
        rebuilt = bits_to_bytes(stream[: 8 * len(key)])
        assert encrypt(plaintext, rebuilt) == ciphertext
    elapsed = time.perf_counter() - start
    _report(7, "100 exhaustive key recoveries (< 2 s each); 1,000 keystream"
               " recoveries re-encrypt exactly", elapsed)


def test_criterion_08_wire_codecs():
    rng = random.Random(0xD00D)
    start = time.perf_counter()
    for _ in range(10_000):
        frame = Frame(
            sink_id=rng.randrange(65536),
            sequence=rng.randrange(2**32),
            payload=rng.randbytes(rng.randrange(0, 120)),
        )
        assert decode_frame(encode_frame(frame)) == frame
    kinds = list(ReadingKind)
    for _ in range(10_000):
        batch = [
            SensorReading(
                node_id=rng.randrange(65536),
                timestamp=rng.randrange(2**32),
                kind=rng.choice(kinds),
                value=rng.randbytes(rng.randrange(0, 33)),
            )
            for _ in range(rng.randrange(0, 5))
        ]
        assert decode_readings(encode_readings(batch)) == batch

    encoded = encode_frame(Frame(sink_id=7, sequence=40_000,
                                 payload=b"all bits matter here"))
    assert len(encoded) <= 64
    for bit in range(8 * len(encoded)):
        mutated = bytearray(encoded)
        mutated[bit // 8] ^= 1 << (7 - bit % 8)
        try:
            decode_frame(bytes(mutated))
        except DecodeError:
            continue
        raise AssertionError(f"bit flip at {bit} was not rejected")
    elapsed = time.perf_counter() - start
    _report(8, "10,000 frame + 10,000 batch round trips; every single-bit"
               " frame corruption rejected", elapsed)


def test_criterion_09_end_to_end_simulation():
    config = load_config(str(CONFIG_PATH))
    start = time.perf_counter()
    report = run_simulation(config)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert report.readings_sensed == 20
    assert report.readings_recovered == 20
    assert report.fidelity_ok
    assert report.frames_rejected == {}
    again = run_simulation(config)
    assert report == again
    assert json.dumps(report_to_dict(report)) == json.dumps(report_to_dict(again))
    _report(9, "bundled demo simulation: 20/20 readings, fidelity ok,"
               " bit-identical reruns", elapsed)


def test_criterion_10_cli_surface(capsys):
    start = time.perf_counter()
    assert cli.main(["vectors"]) == 0
    capsys.readouterr()
    assert cli.main(["encrypt", "--in-hex", "4142", "--key-hex", "5a"]) == 0
    assert capsys.readouterr().out.strip() == "d8db"
    assert cli.main(["estimate", "--key-bits", "64", "--rate", "1000000",
                     "--mode", "average"]) == 0
    assert "years=292471" in capsys.readouterr().out
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(10, "CLI: vectors self-check, hex encrypt, keyspace estimate",
                elapsed)
