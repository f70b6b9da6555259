"""Command-line front end.

Subcommands: encrypt, decrypt, keygen, estimate, attack, simulate, vectors.
Exit codes: 0 success, 1 self-check or fidelity failure, 2 bad usage,
3 I/O failure, 4 key not found.  Data goes to stdout, diagnostics to
stderr; hex is emitted lowercase and accepted case-insensitively.  Output
is always plain text (NO_COLOR needs no special handling).
"""

from __future__ import annotations

import argparse
import functools
import json
import secrets
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import rng
from .cipher import (
    MAX_KEY_BYTES,
    adjacent_swap,
    bits_to_bytes,
    bytes_to_bits,
    complement,
    decrypt,
    encrypt,
    key_directed_xor,
)
from .keyspace import (
    MAX_SEARCH_KEY_BYTES,
    MODE_AVERAGE,
    MODE_WORST_CASE,
    AttackModel,
    estimate_brute_force,
    exhaustive_search,
)
from .sim import InvalidConfigError, load_config, report_to_dict, run_simulation

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NOT_FOUND = 4


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _parse_hex(text: str, what: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ValueError(f"{what} is not valid hex: {text!r}") from None


def _read_input(args: argparse.Namespace) -> bytes:
    if args.in_hex is not None:
        return _parse_hex(args.in_hex, "--in-hex")
    with open(args.in_path, "rb") as handle:
        return handle.read()


def _write_output(args: argparse.Namespace, data: bytes) -> None:
    if args.out is None:
        print(data.hex())
    else:
        with open(args.out, "wb") as handle:
            handle.write(data)


def _cmd_codec(args: argparse.Namespace, operation) -> int:
    try:
        key = _parse_hex(args.key_hex, "--key-hex")
    except ValueError as exc:
        return _fail_usage(str(exc))
    if not 1 <= len(key) <= MAX_KEY_BYTES:
        return _fail_usage(f"key must be 1..{MAX_KEY_BYTES} bytes")
    try:
        data = _read_input(args)
    except ValueError as exc:
        return _fail_usage(str(exc))
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        _write_output(args, operation(data, key))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_encrypt(args: argparse.Namespace) -> int:
    return _cmd_codec(args, encrypt)


def cmd_decrypt(args: argparse.Namespace) -> int:
    return _cmd_codec(args, decrypt)


def cmd_keygen(args: argparse.Namespace) -> int:
    if not 1 <= args.key_bytes <= MAX_KEY_BYTES:
        return _fail_usage(f"--key-bytes must be 1..{MAX_KEY_BYTES}")
    if args.seed is None:
        key = secrets.token_bytes(args.key_bytes)
    else:
        key = rng.derive_bytes(rng.mix64(args.seed), args.key_bytes)
    print(key.hex())
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    try:
        rate = Fraction(args.rate)
    except (ValueError, ZeroDivisionError):
        return _fail_usage(f"--rate is not a number: {args.rate!r}")
    if args.key_bits < 1:
        return _fail_usage("--key-bits must be >= 1")
    if rate <= 0:
        return _fail_usage("--rate must be > 0")
    mode = MODE_AVERAGE if args.mode == "average" else MODE_WORST_CASE
    estimate = estimate_brute_force(
        AttackModel(key_length_bits=args.key_bits, keys_per_second=rate, mode=mode)
    )
    try:
        # formatted before printing, so a failure leaves stdout empty
        text = (
            f"total_keys={estimate.total_keys}\n"
            f"seconds={estimate.seconds}\n"
            f"years_exact={estimate.years}\n"
            f"years={estimate.years_floor}"
        )
    except ValueError as exc:  # the interpreter's int-to-str digit limit
        return _fail_usage(f"result is too large to print: {exc}")
    print(text)
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    try:
        plain = _parse_hex(args.plain_hex, "--plain-hex")
        cipher = _parse_hex(args.cipher_hex, "--cipher-hex")
    except ValueError as exc:
        return _fail_usage(str(exc))
    if not 1 <= args.key_bytes <= MAX_SEARCH_KEY_BYTES:
        return _fail_usage(f"--key-bytes must be 1..{MAX_SEARCH_KEY_BYTES}")
    if len(plain) != len(cipher) or len(plain) < args.key_bytes:
        return _fail_usage(
            "plaintext and ciphertext must be the same length and at least"
            " as long as the key"
        )
    key = exhaustive_search(plain, cipher, args.key_bytes)
    if key is None:
        print("not found")
        return EXIT_NOT_FOUND
    print(key.hex())
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
        report = run_simulation(config)
    except InvalidConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    text = json.dumps(report_to_dict(report), indent=2)
    if args.report is None:
        print(text)
    else:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK if report.fidelity_ok else EXIT_CHECK_FAILED


# -- vectors -------------------------------------------------------------

_KEY_BYTE = 90  # 'Z'

# (label, byte, pre-stage bits, shuffled, xored, complemented, output byte)
_ENC_EXPECTED = [
    ("A", 65, "01000001", "10000010", "00100111", "11011000", 216),
    ("B", 66, "01000010", "10000001", "00100100", "11011011", 219),
]
_KEY_EXPECTED = ("01011010", "10100101")

# (byte, bits, complemented, key-xored, shuffled, output char)
_DEC_EXPECTED = [
    (216, "11011000", "00100111", "10000010", "01000001", "A"),
    (219, "11011011", "00100100", "10000001", "01000010", "B"),
]


def _bits_str(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


def cmd_vectors(_args: argparse.Namespace) -> int:
    """Recompute the worked single-byte example tables and self-check every
    cell against the expected values baked in above."""
    failures: List[str] = []

    def check(where: str, got, want) -> None:
        if got != want:
            failures.append(f"{where}: got {got!r}, want {want!r}")

    key = bytes([_KEY_BYTE])
    key_bits = bytes_to_bits(key)
    key_shuffled = adjacent_swap(key_bits)
    check("key bits", _bits_str(key_bits), _KEY_EXPECTED[0])
    check("key shuffled", _bits_str(key_shuffled), _KEY_EXPECTED[1])

    print("encryption (key 'Z' = 90, bits "
          f"{_bits_str(key_bits)} -> shuffled {_bits_str(key_shuffled)})")
    print(f"{'char':>4} {'byte':>4} {'bits':>8} {'shuffled':>8} "
          f"{'xored':>8} {'inverted':>8} {'out':>3}")
    for label, byte, want_bits, want_shuf, want_xor, want_inv, want_out in (
        _ENC_EXPECTED
    ):
        bits = bytes_to_bits(bytes([byte]))
        shuffled = adjacent_swap(bits)
        xored = key_directed_xor(shuffled, key_shuffled)
        inverted = complement(xored)
        out = bits_to_bytes(inverted)[0]
        check(f"{label} bits", _bits_str(bits), want_bits)
        check(f"{label} shuffled", _bits_str(shuffled), want_shuf)
        check(f"{label} xored", _bits_str(xored), want_xor)
        check(f"{label} inverted", _bits_str(inverted), want_inv)
        check(f"{label} output", out, want_out)
        check(f"{label} encrypt()", encrypt(bytes([byte]), key), bytes([want_out]))
        print(f"{label:>4} {byte:>4} {_bits_str(bits):>8} "
              f"{_bits_str(shuffled):>8} {_bits_str(xored):>8} "
              f"{_bits_str(inverted):>8} {out:>3}")

    print("decryption")
    print(f"{'byte':>4} {'bits':>8} {'inverted':>8} {'xored':>8} "
          f"{'shuffled':>8} {'char':>4}")
    for byte, want_bits, want_inv, want_xor, want_shuf, want_char in (
        _DEC_EXPECTED
    ):
        bits = bytes_to_bits(bytes([byte]))
        inverted = complement(bits)
        xored = key_directed_xor(inverted, key_shuffled)
        shuffled = adjacent_swap(xored)
        char = chr(bits_to_bytes(shuffled)[0])
        check(f"{byte} bits", _bits_str(bits), want_bits)
        check(f"{byte} inverted", _bits_str(inverted), want_inv)
        check(f"{byte} xored", _bits_str(xored), want_xor)
        check(f"{byte} shuffled", _bits_str(shuffled), want_shuf)
        check(f"{byte} char", char, want_char)
        check(f"{byte} decrypt()", decrypt(bytes([byte]), key),
              want_char.encode("ascii"))
        print(f"{byte:>4} {_bits_str(bits):>8} {_bits_str(inverted):>8} "
              f"{_bits_str(xored):>8} {_bits_str(shuffled):>8} {want_char:>4}")

    if failures:
        for failure in failures:
            print(f"vector mismatch: {failure}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print("all vectors match")
    return EXIT_OK


# -- parser ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call
    of `main`; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="wsncrypt",
        description="Key-directed bit-shuffle cipher and telemetry simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, helptext in (
        ("encrypt", cmd_encrypt, "encrypt a file or hex string"),
        ("decrypt", cmd_decrypt, "decrypt a file or hex string"),
    ):
        p = sub.add_parser(name, help=helptext)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--in", dest="in_path", metavar="PATH",
                         help="input file")
        src.add_argument("--in-hex", dest="in_hex", metavar="HEX",
                         help="input as a hex string")
        p.add_argument("--key-hex", required=True, metavar="HEX",
                       help="secret key as hex (1..32 bytes)")
        p.add_argument("--out", metavar="PATH",
                       help="output file (default: print hex)")
        p.set_defaults(func=handler)

    p = sub.add_parser("keygen", help="generate a random key")
    p.add_argument("--key-bytes", type=int, required=True)
    p.add_argument("--seed", type=int, help="derive deterministically")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("estimate", help="brute-force cost arithmetic")
    p.add_argument("--key-bits", type=int, required=True)
    p.add_argument("--rate", required=True, metavar="KEYS_PER_SECOND")
    p.add_argument("--mode", choices=("average", "worst"), default="average")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("attack", help="known-plaintext exhaustive key search")
    p.add_argument("--plain-hex", required=True)
    p.add_argument("--cipher-hex", required=True)
    p.add_argument("--key-bytes", type=int, required=True,
                   help=f"1..{MAX_SEARCH_KEY_BYTES}")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("simulate", help="run a telemetry simulation")
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--report", metavar="PATH",
                   help="report JSON file (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("vectors", help="print and self-check the worked"
                                       " single-byte example tables")
    p.set_defaults(func=cmd_vectors)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
