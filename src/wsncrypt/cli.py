"""Command-line front end.

Subcommands: encrypt, decrypt, keygen, estimate, attack, simulate, vectors.
Exit codes: 0 success, 1 self-check or fidelity failure, 2 bad usage,
3 I/O failure, 4 key not found.  Data goes to stdout, diagnostics to
stderr; hex is emitted lowercase and accepted case-insensitively.  Output
is always plain text (NO_COLOR needs no special handling).

Arguments are checked by the library calls they feed: a rejected argument
is the library's own `ValueError`, which `main` prints as one `error:` line
and turns into exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import secrets
import sys
from fractions import Fraction
from typing import List, Optional

from . import rng
from .cipher import (
    MAX_KEY_BYTES,
    _check_key,
    adjacent_swap,
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


def _cmd_codec(args: argparse.Namespace, operation) -> int:
    key = _parse_hex(args.key_hex, "--key-hex")
    _check_key(key)  # before the input is read: a bad key is usage, not I/O
    try:
        if args.in_hex is not None:
            data = _parse_hex(args.in_hex, "--in-hex")
        else:
            with open(args.in_path, "rb") as handle:
                data = handle.read()
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_IO
    result = operation(data, key)
    try:
        if args.out is None:
            print(result.hex())
        else:
            with open(args.out, "wb") as handle:
                handle.write(result)
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
    mode = MODE_AVERAGE if args.mode == "average" else MODE_WORST_CASE
    model = AttackModel(key_length_bits=args.key_bits, keys_per_second=rate, mode=mode)
    # 2**n (n / 8 bytes to build) has floor(n * log10(2)) + 1 digits
    digit_limit = sys.get_int_max_str_digits()
    if digit_limit and args.key_bits * math.log10(2) >= digit_limit:
        return _fail_usage(
            f"result is too large to print: 2**{args.key_bits} has more than"
            f" {digit_limit} digits"
        )
    estimate = estimate_brute_force(model)
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
    plain = _parse_hex(args.plain_hex, "--plain-hex")
    cipher = _parse_hex(args.cipher_hex, "--cipher-hex")
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
_KEY_EXPECTED = ["01011010", "10100101"]

# (plain byte, bits, shuffled, xored, inverted, cipher byte); decrypting the
# cipher byte passes through the same bit strings in reverse order
_EXPECTED = [
    (65, "01000001", "10000010", "00100111", "11011000", 216),
    (66, "01000010", "10000001", "00100100", "11011011", 219),
]


def _walk(byte: int, stages) -> List[str]:
    """The bits of `byte`, then its bits after each stage in turn."""
    walked = [bytes_to_bits(bytes([byte]))]
    for stage in stages:
        walked.append(stage(walked[-1]))
    return ["".join(map(str, bits)) for bits in walked]


def cmd_vectors(_args: argparse.Namespace) -> int:
    """Recompute the worked single-byte example tables and self-check every
    cell against the expected values baked in above."""
    failures: List[str] = []

    def check(where: str, got, want) -> None:
        if got != want:
            failures.append(f"{where}: got {got!r}, want {want!r}")

    key = bytes([_KEY_BYTE])
    key_bits, key_shuffled = _walk(_KEY_BYTE, (adjacent_swap,))
    check("key", [key_bits, key_shuffled], _KEY_EXPECTED)
    xor_key = functools.partial(key_directed_xor, key=adjacent_swap(bytes_to_bits(key)))

    print(f"encryption (key 'Z' = 90, bits {key_bits} -> shuffled {key_shuffled})")
    print(f"{'char':>4} {'byte':>4} {'bits':>8} {'shuffled':>8} "
          f"{'xored':>8} {'inverted':>8} {'out':>3}")
    for plain, *want, out in _EXPECTED:
        walked = _walk(plain, (adjacent_swap, xor_key, complement))
        check(f"{chr(plain)} stages", walked, want)
        check(f"{chr(plain)} encrypt()", encrypt(bytes([plain]), key),
              bytes([out]))
        print(f"{chr(plain):>4} {plain:>4} {' '.join(walked)} "
              f"{int(walked[-1], 2):>3}")

    print("decryption")
    print(f"{'byte':>4} {'bits':>8} {'inverted':>8} {'xored':>8} "
          f"{'shuffled':>8} {'char':>4}")
    for plain, *want, out in _EXPECTED:
        walked = _walk(out, (complement, xor_key, adjacent_swap))
        check(f"{out} stages", walked, want[::-1])
        check(f"{out} decrypt()", decrypt(bytes([out]), key), bytes([plain]))
        print(f"{out:>4} {' '.join(walked)} {chr(int(walked[-1], 2)):>4}")

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
    try:
        return args.func(args)
    except ValueError as exc:  # every library rejection of an argument
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
