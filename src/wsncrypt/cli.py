"""Command-line front end.

Subcommands: encrypt, decrypt, keygen, estimate, attack, simulate, vectors.
Exit codes: 0 success, 1 self-check or fidelity failure, 2 bad usage,
3 I/O failure, 4 key not found.  Data goes to stdout, diagnostics to
stderr; hex is emitted lowercase and accepted case-insensitively.  Output
is always plain text (NO_COLOR needs no special handling).

Arguments are checked by the library calls they feed, or by the subcommand
where no call can (keygen's length and seed, estimate's rate and result
size): a rejected argument is a `ValueError`, which `main` alone prints, as
one `error:` line per problem, and turns into exit 2.  Each subcommand
reports its own files' errors; a failed write to stdout (help text too),
such as to a pipe whose reader has gone, is `main`'s to report, as one
`error:` line and exit 3, and so is a failure of the final flush of stdout.

A subcommand imports what only it uses as it runs: `simulate` loads the
simulator and `attack` and `estimate` the attack layer, so `encrypt`,
`decrypt`, `keygen` and `vectors` load `cipher` and `rng` alone.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import re
import secrets
import stat
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

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NOT_FOUND = 4


def _parse_hex(text: str, what: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ValueError(f"{what} is not valid hex: {text!r}") from None


# The most bytes read and ciphered per step of the encrypt/decrypt loop, and
# the size of its two buffers: whole key periods, and no more than the input
# needs when its size is known.  Output byte j depends only on input byte j
# and j mod L, so key-aligned chunks give the bytes of one whole-input call.
# Every chunk but the last takes the cipher's long-input path (`_BULK`), and
# chunks of 128 KiB, 512 KiB or 1 MiB encrypted files no faster.
_CHUNK = 256 * 1024


class _ReadError(Exception):
    """A read of the opened input failed; the cause is the `OSError`."""


def _ciphered(source, length: int, operation, key: bytes):
    """`operation` of each chunk of `source`, read into one buffer and ciphered
    into another, which each result views until the next overwrites it."""
    size = min(_CHUNK - _CHUNK % len(key), length + -length % len(key))
    data, out = bytearray(size), bytearray(size)
    try:
        while got := source.readinto(data):
            del data[got:]  # readinto fills `data` unless the input ends
            yield operation(data, key, out=out)
    except OSError as exc:
        raise _ReadError from exc


def _write_replacing(path: str, chunks) -> None:
    """Write `chunks` to `path` so that it changes only once all are written.

    The bytes go to a temporary file beside the file `path` names (through
    any symlinks), which then replaces it; on any failure the temporary file
    is removed and the old file is left as it was.  The new file keeps the old
    one's permission bits, or gets the umask's if there was none, as writing
    in place would, and an old file that may not be written is refused.  A
    path that names something other than a regular file, such as a device or
    a pipe, is written in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as handle:
            handle.writelines(chunks)
        return
    target = os.path.realpath(path)
    if mode is not None:
        open(target, "ab").close()  # refused where writing in place would be
    temp = f"{target}.{secrets.token_hex(8)}.tmp"
    handle = open(temp, "xb")  # 0o666 less the umask, like a new output
    try:
        with handle:
            handle.writelines(chunks)
        if mode is not None:
            os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, target)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def _cmd_codec(args: argparse.Namespace, operation) -> int:
    key = _parse_hex(args.key_hex, "--key-hex")
    _check_key(key)  # before the input is read: a bad key is usage, not I/O
    try:
        if args.in_hex is not None:
            data = _parse_hex(args.in_hex, "--in-hex")
            source, length = io.BytesIO(data), len(data)
        else:
            source = open(args.in_path, "rb")
            length = os.fstat(source.fileno()).st_size or _CHUNK  # 0 for a pipe
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_IO
    with source:
        results = _ciphered(source, length, operation, key)
        try:
            if args.out is None:
                for result in results:
                    sys.stdout.write(result.hex())
                sys.stdout.write("\n")
            else:
                _write_replacing(args.out, results)
        except _ReadError as exc:
            print(f"error: cannot read input: {exc.__cause__}", file=sys.stderr)
            return EXIT_IO
        except OSError as exc:
            if args.out is None:  # stdout's, which `main` reports
                raise
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def cmd_encrypt(args: argparse.Namespace) -> int:
    return _cmd_codec(args, encrypt)


def cmd_decrypt(args: argparse.Namespace) -> int:
    return _cmd_codec(args, decrypt)


def cmd_keygen(args: argparse.Namespace) -> int:
    if not 1 <= args.key_bytes <= MAX_KEY_BYTES:
        raise ValueError(f"--key-bytes must be 1..{MAX_KEY_BYTES}")
    # mix64 masks its input, so a seed outside u64 would wrap silently
    if args.seed is not None and not 0 <= args.seed <= rng.MASK64:
        raise ValueError(f"--seed must be 0..{rng.MASK64}")
    if args.seed is None:
        key = secrets.token_bytes(args.key_bytes)
    else:
        key = rng.derive_bytes(rng.mix64(args.seed), args.key_bytes)
    print(key.hex())
    return EXIT_OK


# Fraction(text) builds 10**exponent before any check, so the text is bounded
# first; both bounds are far past any real key rate and parse in microseconds
_MAX_RATE_CHARS = 1_000
_MAX_RATE_EXPONENT = 10_000
# a decimal exponent as Fraction reads one: at the end of the text
_RATE_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def cmd_estimate(args: argparse.Namespace) -> int:
    from .keyspace import MODE_AVERAGE, MODE_WORST_CASE, AttackModel, estimate_brute_force

    if len(args.rate) > _MAX_RATE_CHARS:
        raise ValueError(f"--rate is longer than {_MAX_RATE_CHARS} characters")
    exponent = _RATE_EXPONENT.search(args.rate)
    if exponent and abs(int(exponent[1])) > _MAX_RATE_EXPONENT:
        raise ValueError(
            f"--rate exponent is outside ±{_MAX_RATE_EXPONENT}: {args.rate!r}"
        )
    try:
        rate = Fraction(args.rate)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--rate is not a number: {args.rate!r}") from None
    mode = MODE_AVERAGE if args.mode == "average" else MODE_WORST_CASE
    model = AttackModel(key_length_bits=args.key_bits, keys_per_second=rate, mode=mode)
    # 2**n (n / 8 bytes to build) has floor(n * log10(2)) + 1 digits
    digit_limit = sys.get_int_max_str_digits()
    if digit_limit and args.key_bits * math.log10(2) >= digit_limit:
        raise ValueError(
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
        raise ValueError(f"result is too large to print: {exc}") from None
    print(text)
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    from .keyspace import exhaustive_search

    plain = _parse_hex(args.plain_hex, "--plain-hex")
    cipher = _parse_hex(args.cipher_hex, "--cipher-hex")
    key = exhaustive_search(plain, cipher, args.key_bytes)
    if key is None:
        print("not found")
        return EXIT_NOT_FOUND
    print(key.hex())
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import load_config, report_to_dict, run_simulation

    report = run_simulation(load_config(args.config))
    text = json.dumps(report_to_dict(report), indent=2)
    if args.report is None:
        print(text)
    else:
        try:
            _write_replacing(args.report, [(text + "\n").encode("utf-8")])
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
    key_bits = bytes_to_bits(key)
    key_shuffled = adjacent_swap(key_bits)
    key_text = ["".join(map(str, bits)) for bits in (key_bits, key_shuffled)]
    check("key", key_text, _KEY_EXPECTED)
    xor_key = functools.partial(key_directed_xor, key=key_shuffled)

    print(f"encryption (key 'Z' = 90, bits {key_text[0]} -> shuffled {key_text[1]})")
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


class _Parser(argparse.ArgumentParser):
    """Lets a failed write of help text raise, as any other write to stdout
    does, so that `main` reports it; argparse would drop it."""

    def print_help(self, file=None):
        file = file or sys.stdout
        if file is not None:  # None when the process has no stdout
            file.write(self.format_help())


class _KeyspaceHelpFormatter(argparse.HelpFormatter):
    """Fills `keyspace`'s names into help text as it is printed, so that
    building the parser does not load `keyspace`."""

    def _get_help_string(self, action):
        from . import keyspace

        return action.help.format_map(vars(keyspace))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call
    of `main`; parsing leaves it unchanged."""
    parser = _Parser(
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
    p.add_argument("--seed", type=int,
                   help="derive deterministically from a seed in 0..2**64-1")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("estimate", help="brute-force cost arithmetic")
    p.add_argument("--key-bits", type=int, required=True)
    p.add_argument("--rate", required=True, metavar="KEYS_PER_SECOND")
    p.add_argument("--mode", choices=("average", "worst"), default="average")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("attack", help="known-plaintext exhaustive key search",
                       formatter_class=_KeyspaceHelpFormatter)
    p.add_argument("--plain-hex", required=True)
    p.add_argument("--cipher-hex", required=True)
    p.add_argument("--key-bytes", type=int, required=True,
                   help="1..{MAX_SEARCH_KEY_BYTES}")
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


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the flush
    at interpreter exit drops what a failed write left buffered instead of
    failing again."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # no descriptor of its own, so no flush at exit to fail
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as done:  # after --help, or a usage error
            code = done.code
        else:
            code = args.func(args)
        if sys.stdout is not None:  # None when the process has no stdout
            sys.stdout.flush()  # here, not at exit, so a failure is reported
    except ValueError as exc:  # every rejection of an argument
        # a rejected config (InvalidConfigError) lists each of its problems
        for problem in getattr(exc, "problems", [exc]):
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a write to stdout: commands catch their files'
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        _discard_stdout()
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
