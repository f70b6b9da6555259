import errno
import itertools
import json
import os
import random
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from reference import ref_encrypt

import wsncrypt.cli as cli
from wsncrypt.cipher import _BULK, decrypt, encrypt
from wsncrypt.sim import InvalidConfigError, config_from_dict

ROOT = Path(__file__).resolve().parent.parent
CONFIG_PATH = ROOT / "configs" / "demo.json"


def run(argv):
    """Invoke the CLI in-process; argparse usage errors become exit code 2."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# -- encrypt / decrypt ----------------------------------------------------------


def test_encrypt_hex(capsys):
    assert run(["encrypt", "--in-hex", "4142", "--key-hex", "5a"]) == 0
    assert capsys.readouterr().out.strip() == "d8db"


def test_decrypt_hex(capsys):
    assert run(["decrypt", "--in-hex", "d8db", "--key-hex", "5a"]) == 0
    assert capsys.readouterr().out.strip() == "4142"


def test_hex_is_case_insensitive(capsys):
    assert run(["decrypt", "--in-hex", "D8DB", "--key-hex", "5A"]) == 0
    assert capsys.readouterr().out.strip() == "4142"


def test_encrypt_empty_input(capsys):
    assert run(["encrypt", "--in-hex", "", "--key-hex", "5a"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_empty_key_is_usage_error():
    assert run(["encrypt", "--in-hex", "41", "--key-hex", ""]) == 2


def test_oversized_key_is_usage_error():
    assert run(["encrypt", "--in-hex", "41", "--key-hex", "ab" * 33]) == 2


def test_odd_hex_is_usage_error():
    assert run(["decrypt", "--in-hex", "d8d", "--key-hex", "5a"]) == 2


def test_missing_input_is_usage_error():
    assert run(["encrypt", "--key-hex", "5a"]) == 2


def test_unknown_flag_is_usage_error():
    assert run(["encrypt", "--in-hex", "41", "--key-hex", "5a", "--nope"]) == 2


def test_both_input_forms_rejected(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"x")
    assert run(["encrypt", "--in", str(path), "--in-hex", "41",
                "--key-hex", "5a"]) == 2


def test_module_entry_point():
    done = subprocess.run(
        [sys.executable, "-m", "wsncrypt", "vectors"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0
    assert "all vectors match" in done.stdout


def test_file_round_trip(tmp_path, capsys):
    source = tmp_path / "plain.bin"
    encrypted = tmp_path / "cipher.bin"
    restored = tmp_path / "plain2.bin"
    payload = bytes(range(256)) * 3
    source.write_bytes(payload)
    assert run(["encrypt", "--in", str(source), "--key-hex", "00ff5a",
                "--out", str(encrypted)]) == 0
    assert encrypted.read_bytes() != payload
    assert run(["decrypt", "--in", str(encrypted), "--key-hex", "00ff5a",
                "--out", str(restored)]) == 0
    assert restored.read_bytes() == payload


def test_in_place_bulk_file_round_trip(tmp_path):
    path = tmp_path / "data.bin"
    payload = bytes(range(256)) * (_BULK // 256) + b"tail"
    path.write_bytes(payload)
    args = ["--in", str(path), "--key-hex", "00ff5a", "--out", str(path)]
    assert run(["encrypt", *args]) == 0
    assert path.read_bytes() == encrypt(payload, b"\x00\xff\x5a")
    assert run(["decrypt", *args]) == 0
    assert path.read_bytes() == payload


def test_main_runs_different_subcommands_in_one_process(capsys):
    assert run(["encrypt", "--in-hex", "4142", "--key-hex", "5a"]) == 0
    assert capsys.readouterr().out.strip() == "d8db"
    assert run(["estimate", "--key-bits", "8", "--rate", "1"]) == 0
    assert "total_keys=256" in capsys.readouterr().out
    assert run(["decrypt", "--in-hex", "d8db", "--key-hex", "5a"]) == 0
    assert capsys.readouterr().out.strip() == "4142"
    assert cli.build_parser() is cli.build_parser()


def test_unreadable_input_is_io_error(tmp_path):
    assert run(["encrypt", "--in", str(tmp_path / "absent.bin"),
                "--key-hex", "5a"]) == 3


def test_unwritable_output_is_io_error(tmp_path):
    assert run(["encrypt", "--in-hex", "41", "--key-hex", "5a",
                "--out", str(tmp_path)]) == 3  # a directory, not a file


# -- streaming --in in key-aligned chunks -------------------------------------------


def _child_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _payload(size):
    return random.Random(size).randbytes(size)


# -- the runtime is stdlib-only -----------------------------------------------------

# the modules before and after the import, so that what the interpreter and
# an editable install's finder load at start-up is not counted
_NEW_MODULES = """
import json, sys
before = set(sys.modules)
import wsncrypt, wsncrypt.cli, wsncrypt.sim, wsncrypt.keyspace
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_runtime_imports_only_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES],
        capture_output=True, text=True, env=_child_env(), check=True,
    )
    new = json.loads(done.stdout)
    assert "wsncrypt.keyspace" in new
    third_party = [
        name for name in new
        if name.partition(".")[0] not in sys.stdlib_module_names | {"wsncrypt"}
    ]
    assert third_party == []


# the package's modules loaded after importing the CLI and after each
# subcommand in turn (stdout swallowed), as one JSON object
_FOOTPRINT = """
import contextlib, io, json, sys

def loaded():
    return sorted(n for n in sys.modules if n.partition(".")[0] == "wsncrypt")

import wsncrypt, wsncrypt.cli
steps = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = wsncrypt.cli.main(argv)
    steps[argv[0]] = (code, loaded())
print(json.dumps(steps))
"""


def test_each_subcommand_loads_only_the_modules_it_uses():
    commands = [
        ["encrypt", "--in-hex", "4142", "--key-hex", "5a"],
        ["decrypt", "--in-hex", "d8db", "--key-hex", "5a"],
        ["keygen", "--key-bytes", "8", "--seed", "1"],
        ["vectors"],
        ["estimate", "--key-bits", "8", "--rate", "1"],
        ["simulate", "--config", str(CONFIG_PATH)],
    ]
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, json.dumps(commands)],
        capture_output=True, text=True, env=_child_env(), check=True,
    )
    steps = json.loads(done.stdout)
    front = ["wsncrypt", "wsncrypt.cipher", "wsncrypt.cli", "wsncrypt.rng"]
    assert steps.pop("import") == front
    for name in ("encrypt", "decrypt", "keygen", "vectors"):
        assert steps[name] == [0, front], name
    assert steps["estimate"] == [0, sorted(front + ["wsncrypt.keyspace"])]
    code, modules = steps["simulate"]
    assert code == 0
    assert {"wsncrypt.sim", "wsncrypt.topology", "wsncrypt.wire"} <= set(modules)


def test_attack_help_names_the_search_bound(capsys):
    from wsncrypt.keyspace import MAX_SEARCH_KEY_BYTES

    assert run(["attack", "--help"]) == 0
    assert f"1..{MAX_SEARCH_KEY_BYTES}" in capsys.readouterr().out.split()


def _step(key):
    """The chunk the CLI ciphers at a time under `key`."""
    return cli._CHUNK - cli._CHUNK % len(key)


@pytest.mark.parametrize("key_len", [1, 3, 8, 32])
@pytest.mark.parametrize("command, operation",
                         [("encrypt", encrypt), ("decrypt", decrypt)])
def test_streamed_file_equals_whole_input_call(command, operation, key_len,
                                               tmp_path):
    key = bytes(range(0x5A, 0x5A + key_len))
    step = _step(key)
    assert step >= _BULK  # every chunk but the last takes the bulk path
    source, target = tmp_path / "in.bin", tmp_path / "out.bin"
    for size in (step - 1, step, step + 1, 3 * step + 5):
        payload = _payload(size)
        source.write_bytes(payload)
        assert run([command, "--in", str(source), "--key-hex", key.hex(),
                    "--out", str(target)]) == 0
        assert target.read_bytes() == operation(payload, key), size


def test_streamed_file_matches_bit_at_a_time_reference(tmp_path):
    key = b"\x00\xff\x5a"
    payload = _payload(_step(key) + 1)  # two chunks, the second one byte
    source, target = tmp_path / "in.bin", tmp_path / "out.bin"
    source.write_bytes(payload)
    assert run(["encrypt", "--in", str(source), "--key-hex", key.hex(),
                "--out", str(target)]) == 0
    assert target.read_bytes() == ref_encrypt(payload, key)


@pytest.mark.parametrize("command, operation",
                         [("encrypt", encrypt), ("decrypt", decrypt)])
def test_streamed_file_to_stdout_is_one_hex_line(command, operation, tmp_path,
                                                 capsys):
    source = tmp_path / "in.bin"
    for key in (b"\x5a", b"\x00\xff\x5a", bytes(range(0x5A, 0x7A))):
        payload = _payload(3 * _step(key) + 5)
        source.write_bytes(payload)
        assert run([command, "--in", str(source), "--key-hex", key.hex()]) == 0
        assert capsys.readouterr().out == operation(payload, key).hex() + "\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("key_len", [3, 32])
@pytest.mark.parametrize("command, operation",
                         [("encrypt", encrypt), ("decrypt", decrypt)])
def test_input_pipe_fed_in_odd_sized_writes(command, operation, key_len,
                                            tmp_path):
    # a pipe's reads come back short; every chunk must still start at a
    # multiple of the key length
    key = bytes(range(0x5A, 0x5A + key_len))
    pipe, target = tmp_path / "pipe", tmp_path / "out.bin"
    payload = _payload(3 * _step(key) + 5)
    os.mkfifo(pipe)

    def feed():
        sizes = itertools.cycle([1, 4097, 65_537, 7, 100_003, 13])
        with open(pipe, "wb", buffering=0) as handle:
            view = memoryview(payload)
            while view:
                view = view[handle.write(view[:next(sizes)]):]

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    code = run([command, "--in", str(pipe), "--key-hex", key.hex(),
                "--out", str(target)])
    writer.join(timeout=10)
    assert code == 0
    assert not writer.is_alive()
    assert target.read_bytes() == operation(payload, key)


def test_chunks_go_through_the_module_level_cipher(tmp_path, monkeypatch):
    # wrappers of `cli.encrypt`, such as a tracer's, see every chunk
    calls = []

    def counted(data, key, **kwargs):
        calls.append(len(data))
        return encrypt(data, key, **kwargs)

    monkeypatch.setattr(cli, "encrypt", counted)
    source, target = tmp_path / "in.bin", tmp_path / "out.bin"
    payload = _payload(2 * _step(b"\x5a") + 5)
    source.write_bytes(payload)
    assert run(["encrypt", "--in", str(source), "--key-hex", "5a",
                "--out", str(target)]) == 0
    assert calls == [_step(b"\x5a")] * 2 + [5]
    assert target.read_bytes() == encrypt(payload, b"\x5a")


def test_small_file_allocates_no_chunk_sized_buffer(tmp_path):
    source, target = tmp_path / "in.bin", tmp_path / "out.bin"
    source.write_bytes(_payload(1024))
    argv = ["encrypt", "--in", str(source), "--key-hex", "00ff5a",
            "--out", str(target)]
    assert run(argv) == 0  # builds the parser before anything is measured
    tracemalloc.start()
    try:
        assert run(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cli._CHUNK // 4
    assert target.read_bytes() == encrypt(_payload(1024), b"\x00\xff\x5a")


def test_empty_input_file_gives_empty_output_file(tmp_path, capsys):
    source, target = tmp_path / "in.bin", tmp_path / "out.bin"
    source.write_bytes(b"")
    target.write_bytes(b"old")
    assert run(["encrypt", "--in", str(source), "--key-hex", "5a",
                "--out", str(target)]) == 0
    assert target.read_bytes() == b""
    assert run(["decrypt", "--in", str(source), "--key-hex", "5a"]) == 0
    assert capsys.readouterr().out == "\n"


def test_symlinked_output_is_written_through(tmp_path):
    source, real, link = (tmp_path / name for name in ("in", "real", "link"))
    payload = _payload(1000)
    source.write_bytes(payload)
    real.write_bytes(b"old")
    link.symlink_to(real)
    assert run(["encrypt", "--in", str(source), "--key-hex", "5a",
                "--out", str(link)]) == 0
    assert link.is_symlink()
    assert real.read_bytes() == encrypt(payload, b"\x5a")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    source, pipe = tmp_path / "in.bin", tmp_path / "pipe"
    payload = _payload(3 * _step(b"\x5a") + 5)
    source.write_bytes(payload)
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()),
                              daemon=True)  # blocked for good if never written
    reader.start()
    code = run(["encrypt", "--in", str(source), "--key-hex", "5a",
                "--out", str(pipe)])
    reader.join(timeout=10)
    assert code == 0
    assert not reader.is_alive()
    assert received == [encrypt(payload, b"\x5a")]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["in.bin", "pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_output_to_dev_stdout_pipe(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "wsncrypt", "encrypt", "--in-hex", "4142",
         "--key-hex", "5a", "--out", "/dev/stdout"],
        capture_output=True, env=_child_env(),
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, b"\xd8\xdb", b"")


_STDOUT_COMMANDS = {
    "encrypt": ["encrypt", "--in-hex", "4142", "--key-hex", "5a"],
    "decrypt": ["decrypt", "--in-hex", "d8db", "--key-hex", "5a"],
    "keygen": ["keygen", "--key-bytes", "8", "--seed", "1"],
    "estimate": ["estimate", "--key-bits", "64", "--rate", "1000000"],
    "attack": ["attack", "--plain-hex", "41", "--cipher-hex", "d8",
               "--key-bytes", "1"],
    "simulate": ["simulate", "--config", str(CONFIG_PATH)],
    "vectors": ["vectors"],
}


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", sorted(_STDOUT_COMMANDS))
def test_closed_stdout_is_one_error_line_and_exit_3(command, unbuffered):
    # buffered, the write fails at the final flush; unbuffered, in the command
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "wsncrypt", *_STDOUT_COMMANDS[command]],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 3
    broken = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
    assert done.stderr.splitlines() == [f"error: cannot write output: {broken}"]


# -- failed writes leave the old output; permission bits ----------------------------


def _codec_into(tmp_path, out):
    source = tmp_path / "in.bin"
    source.write_bytes(_payload(3 * _step(b"\x5a") + 5))
    return run(["encrypt", "--in", str(source), "--key-hex", "5a",
                "--out", str(out)])


def test_failed_replace_keeps_old_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.bin"
    out.write_bytes(b"old")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(cli.os, "replace", refuse)
    assert _codec_into(tmp_path, out) == 3
    assert "error: cannot write output: " in capsys.readouterr().err
    assert out.read_bytes() == b"old"
    assert sorted(os.listdir(tmp_path)) == ["in.bin", "out.bin"]


class _FailingRead:
    """An opened input whose `failing`-th read raises, as a bad disk would."""

    def __init__(self, handle, failing):
        self.handle, self.failing, self.reads = handle, failing, 0

    def fileno(self):
        return self.handle.fileno()

    def readinto(self, buffer):
        self.reads += 1
        if self.reads == self.failing:
            raise OSError(5, "Input/output error")
        return self.handle.readinto(buffer)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


def _fail_read(monkeypatch, failing):
    """Make the CLI's `failing`-th read of its input raise."""
    real_open = open

    def failing_open(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        return _FailingRead(handle, failing) if mode == "rb" else handle

    monkeypatch.setattr(cli, "open", failing_open, raising=False)


def test_failed_read_keeps_old_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.bin"
    out.write_bytes(b"old")
    _fail_read(monkeypatch, 2)  # after one chunk went to the temporary file
    assert _codec_into(tmp_path, out) == 3
    assert "error: cannot read input: " in capsys.readouterr().err
    assert out.read_bytes() == b"old"
    assert sorted(os.listdir(tmp_path)) == ["in.bin", "out.bin"]


def test_failed_first_read_keeps_old_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.bin"
    out.write_bytes(b"old")
    _fail_read(monkeypatch, 1)
    assert _codec_into(tmp_path, out) == 3
    assert "error: cannot read input: " in capsys.readouterr().err
    assert out.read_bytes() == b"old"
    assert sorted(os.listdir(tmp_path)) == ["in.bin", "out.bin"]


def test_output_in_missing_directory_is_io_error(tmp_path, capsys):
    assert _codec_into(tmp_path, tmp_path / "absent" / "out.bin") == 3
    assert "error: cannot write output: " in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["in.bin"]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_new_output_gets_umask_permissions(tmp_path, umask_022):
    out = tmp_path / "out.bin"
    assert _codec_into(tmp_path, out) == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o644


def test_existing_output_keeps_its_permissions(tmp_path, umask_022):
    out = tmp_path / "out.bin"
    out.write_bytes(b"old")
    os.chmod(out, 0o604)
    assert _codec_into(tmp_path, out) == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o604


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="root may write any file")
def test_read_only_output_is_refused(tmp_path, capsys):
    out = tmp_path / "out.bin"
    out.write_bytes(b"old")
    os.chmod(out, 0o444)
    assert _codec_into(tmp_path, out) == 3
    assert "error: cannot write output: " in capsys.readouterr().err
    assert out.read_bytes() == b"old"
    assert sorted(os.listdir(tmp_path)) == ["in.bin", "out.bin"]


# A 32 MiB file through `main` in a fresh interpreter; prints the growth of
# its peak resident set (ru_maxrss, KiB on Linux) over the call.
_PEAK_GROWTH = """
import resource, sys
from wsncrypt.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = main(sys.argv[1:])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, after - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
def test_file_memory_is_bounded_by_the_chunk(tmp_path):
    source, target = tmp_path / "in.bin", tmp_path / "out.bin"
    block = _payload(1 << 20)
    with open(source, "wb") as handle:
        for _ in range(32):
            handle.write(block)
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_GROWTH, "encrypt", "--in", str(source),
         "--key-hex", "00ff5a5a01020304", "--out", str(target)],
        capture_output=True, text=True, env=_child_env(), check=True,
    )
    code, growth_kib = map(int, done.stdout.split())
    assert code == 0
    assert growth_kib < 16 * 1024
    assert os.path.getsize(target) == 32 << 20


# -- usage errors -----------------------------------------------------------------

# (argv, part of the message); "{missing}" stands for a file that does not exist
USAGE_ERRORS = {
    "codec-empty-key": (["encrypt", "--in-hex", "41", "--key-hex", ""],
                        "key must be at least 1 byte"),
    "codec-33-byte-key": (["encrypt", "--in-hex", "41", "--key-hex", "ab" * 33],
                          "key is 33 bytes, maximum is 32"),
    "codec-bad-hex-key": (["decrypt", "--in-hex", "41", "--key-hex", "5g"],
                          "--key-hex is not valid hex"),
    "codec-odd-hex-input": (["decrypt", "--in-hex", "d8d", "--key-hex", "5a"],
                            "--in-hex is not valid hex"),
    "codec-bad-key-missing-file": (
        ["encrypt", "--in", "{missing}", "--key-hex", ""],
        "key must be at least 1 byte"),
    "estimate-zero-bits": (["estimate", "--key-bits", "0", "--rate", "1"],
                           "key_length_bits must be >= 1"),
    "estimate-zero-rate": (["estimate", "--key-bits", "8", "--rate", "0"],
                           "keys_per_second must be > 0"),
    "estimate-word-rate": (["estimate", "--key-bits", "8", "--rate", "fast"],
                           "--rate is not a number"),
    "estimate-rate-over-zero": (["estimate", "--key-bits", "8", "--rate", "1/0"],
                                "--rate is not a number"),
    # refused before 2**n is built: building it would take 125 GB
    "estimate-trillion-bits": (
        ["estimate", "--key-bits", "1000000000000", "--rate", "1"],
        "result is too large to print"),
    "attack-zero-key-bytes": (["attack", "--plain-hex", "41", "--cipher-hex",
                               "d8", "--key-bytes", "0"],
                              "key_length_bytes must be in 1..3"),
    "attack-four-key-bytes": (["attack", "--plain-hex", "41424344",
                               "--cipher-hex", "d8db0000", "--key-bytes", "4"],
                              "key_length_bytes must be in 1..3"),
    "attack-length-mismatch": (["attack", "--plain-hex", "4142", "--cipher-hex",
                                "d8", "--key-bytes", "1"],
                               "need equal-length plaintext/ciphertext"),
    "attack-bad-hex": (["attack", "--plain-hex", "4x42", "--cipher-hex",
                        "d8db", "--key-bytes", "1"],
                       "--plain-hex is not valid hex"),
    "keygen-zero-bytes": (["keygen", "--key-bytes", "0"],
                          "--key-bytes must be 1..32"),
    "keygen-33-bytes": (["keygen", "--key-bytes", "33"],
                        "--key-bytes must be 1..32"),
    # mix64 masks to 64 bits, so these would print the keys of 2**64-1 and 0
    "keygen-negative-seed": (["keygen", "--key-bytes", "8", "--seed", "-1"],
                             "--seed must be 0..18446744073709551615"),
    "keygen-seed-2**64": (["keygen", "--key-bytes", "8", "--seed", str(2**64)],
                          "--seed must be 0..18446744073709551615"),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(),
                         ids=USAGE_ERRORS)
def test_usage_error_is_one_error_line_and_exit_2(argv, message, tmp_path,
                                                  capsys):
    argv = [arg.replace("{missing}", str(tmp_path / "absent.bin"))
            for arg in argv]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


# -- keygen -----------------------------------------------------------------------


def test_keygen_seed_is_deterministic(capsys):
    assert run(["keygen", "--key-bytes", "8", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert run(["keygen", "--key-bytes", "8", "--seed", "1"]) == 0
    assert capsys.readouterr().out == first
    assert len(first.strip()) == 16


def test_keygen_random_length(capsys):
    assert run(["keygen", "--key-bytes", "8"]) == 0
    out = capsys.readouterr().out.strip()
    assert len(out) == 16
    bytes.fromhex(out)


def test_keygen_zero_bytes_rejected():
    assert run(["keygen", "--key-bytes", "0"]) == 2


# -- estimate ---------------------------------------------------------------------


def test_estimate_average(capsys):
    assert run(["estimate", "--key-bits", "64", "--rate", "1000000",
                "--mode", "average"]) == 0
    out = capsys.readouterr().out
    assert "total_keys=18446744073709551616" in out
    assert "years=292471" in out


def test_estimate_worst(capsys):
    assert run(["estimate", "--key-bits", "64", "--rate", "1000000",
                "--mode", "worst"]) == 0
    assert "years=584942" in capsys.readouterr().out


def test_estimate_zero_bits_rejected():
    assert run(["estimate", "--key-bits", "0", "--rate", "1000000"]) == 2


def test_estimate_bad_rate_rejected():
    assert run(["estimate", "--key-bits", "64", "--rate", "fast"]) == 2
    assert run(["estimate", "--key-bits", "64", "--rate", "0"]) == 2


def test_estimate_result_too_long_to_print_rejected(capsys):
    # Python refuses to print an int of more than 4,300 digits by default
    for key_bits, rate in (("20000", "1"), ("64", "1e-5000")):
        assert run(["estimate", "--key-bits", key_bits, "--rate", rate]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: result is too large to print")
        assert err.count("\n") == 1
    assert run(["estimate", "--key-bits", "14000", "--rate", "1"]) == 0
    assert capsys.readouterr().out.startswith("total_keys=")


@pytest.mark.parametrize("rate, message", [
    ("1e-10000000", "--rate exponent is outside ±10000"),
    ("1e+10000000", "--rate exponent is outside ±10000"),
    ("1e-10001", "--rate exponent is outside ±10000"),
    ("1" * 1001, "--rate is longer than 1000 characters"),
    ("1e-10000", "result is too large to print"),
], ids=["tiny", "huge", "past-bound", "long", "at-bound"])
def test_estimate_rate_is_bounded_before_it_is_parsed(rate, message, capsys):
    # the parse built 10**10000000 first: 7 s and 37 MB to reach exit 2
    start = time.perf_counter()
    assert run(["estimate", "--key-bits", "8", "--rate", rate]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("rate, expected", [
    ("1000000", "seconds=144115188075855872/15625\n"
                "years_exact=1125899906842624/3849609375\nyears=292471\n"),
    ("2.5e6", "seconds=288230376151711744/78125\n"
              "years_exact=2251799813685248/19248046875\nyears=116988\n"),
    ("1/3", "seconds=27670116110564327424\n"
            "years_exact=72057594037927936/82125\nyears=877413626032\n"),
])
def test_estimate_plain_rates(rate, expected, capsys):
    assert run(["estimate", "--key-bits", "64", "--rate", rate]) == 0
    out = capsys.readouterr().out
    assert out == "total_keys=18446744073709551616\n" + expected


# -- attack -----------------------------------------------------------------------


def test_attack_recovers_worked_example(capsys):
    assert run(["attack", "--plain-hex", "4142", "--cipher-hex", "d8db",
                "--key-bytes", "1"]) == 0
    assert capsys.readouterr().out.strip() == "5a"


def test_attack_round_trip(capsys):
    key = bytes.fromhex("c01d")
    cipher = encrypt(b"attack at dawn", key)
    assert run(["attack", "--plain-hex", b"attack at dawn".hex(),
                "--cipher-hex", cipher.hex(), "--key-bytes", "2"]) == 0
    assert capsys.readouterr().out.strip() == "c01d"


def test_attack_round_trip_3_byte_key(capsys):
    key = bytes.fromhex("005a3c")  # 23,100: the scan tries 23,101 candidates
    cipher = encrypt(b"attack at dusk", key)
    assert run(["attack", "--plain-hex", b"attack at dusk".hex(),
                "--cipher-hex", cipher.hex(), "--key-bytes", "3"]) == 0
    assert capsys.readouterr().out == "005a3c\n"


def test_attack_not_found(capsys):
    assert run(["attack", "--plain-hex", "4142", "--cipher-hex", "c8db",
                "--key-bytes", "1"]) == 4
    assert capsys.readouterr().out.strip() == "not found"


def test_attack_3_byte_key_matching_only_the_first_period_not_found(capsys):
    plaintext = b"attack at sunset"
    cipher = bytearray(encrypt(plaintext, bytes.fromhex("a1b2c3")))
    cipher[-1] ^= 0x01  # past the first key period and the 15-byte lane
    assert run(["attack", "--plain-hex", plaintext.hex(), "--cipher-hex",
                cipher.hex(), "--key-bytes", "3"]) == 4
    assert capsys.readouterr().out == "not found\n"


def test_attack_length_mismatch_rejected():
    assert run(["attack", "--plain-hex", "4142", "--cipher-hex", "d8",
                "--key-bytes", "1"]) == 2


def test_attack_key_bytes_out_of_range():
    assert run(["attack", "--plain-hex", "41424344", "--cipher-hex",
                "d8db0000", "--key-bytes", "4"]) == 2


# -- simulate ---------------------------------------------------------------------


def test_simulate_demo_config(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert run(["simulate", "--config", str(CONFIG_PATH),
                "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["fidelity_ok"] is True
    assert report["readings_sensed"] == report["readings_recovered"] == 20


def _simulate_into(report_path):
    return run(["simulate", "--config", str(CONFIG_PATH),
                "--report", str(report_path)])


def test_simulate_report_file_holds_the_stdout_text(tmp_path, capsys):
    assert run(["simulate", "--config", str(CONFIG_PATH)]) == 0
    printed = capsys.readouterr().out
    report_path = tmp_path / "report.json"
    assert _simulate_into(report_path) == 0
    assert report_path.read_bytes() == printed.encode("utf-8")


def test_simulate_report_in_missing_directory_is_io_error(tmp_path, capsys):
    assert _simulate_into(tmp_path / "absent" / "report.json") == 3
    assert "error: cannot write report: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_simulate_failed_replace_keeps_old_report(tmp_path, monkeypatch,
                                                  capsys):
    report_path = tmp_path / "report.json"
    report_path.write_bytes(b"old")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(cli.os, "replace", refuse)
    assert _simulate_into(report_path) == 3
    assert "error: cannot write report: " in capsys.readouterr().err
    assert report_path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["report.json"]


def test_simulate_existing_report_keeps_its_permissions(tmp_path, umask_022):
    report_path = tmp_path / "report.json"
    report_path.write_bytes(b"old")
    os.chmod(report_path, 0o604)
    assert _simulate_into(report_path) == 0
    assert stat.S_IMODE(os.stat(report_path).st_mode) == 0o604
    assert json.loads(report_path.read_text())["fidelity_ok"] is True


def test_simulate_prints_report_to_stdout(capsys):
    assert run(["simulate", "--config", str(CONFIG_PATH)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["frames_delivered"] == 10


def test_simulate_unregistered_sink_fails_fidelity(tmp_path, capsys):
    doc = json.loads(CONFIG_PATH.read_text())
    doc["fusion_registry"] = {}
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(doc))
    assert run(["simulate", "--config", str(config_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["frames_rejected"] == {"unknown_sink": 10}


def test_simulate_misregistered_key_fails_fidelity_without_rejecting(tmp_path,
                                                                     capsys):
    """The fusion center's key differs from the sink's in one bit of key
    byte 2: every frame decrypts to a batch that still parses, so nothing is
    rejected and every reading is "recovered", but none is the one sent."""
    key = bytes(range(1, 33))
    misregistered = bytearray(key)
    misregistered[2] ^= 0x40
    doc = json.loads(CONFIG_PATH.read_text())
    doc["keys"] = {"30": key.hex()}
    doc["fusion_registry"] = {"30": misregistered.hex()}
    config_path = tmp_path / "misregistered.json"
    config_path.write_text(json.dumps(doc))
    assert run(["simulate", "--config", str(config_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["frames_sent"], report["frames_delivered"]) == (10, 10)
    assert report["frames_rejected"] == {}
    assert report["readings_recovered"] == 20
    assert report["fidelity_ok"] is False


# one minimal change to the demo config per check, each the only problem it
# makes.  A node id or tick past its bound would otherwise reach a run,
# which packs both into fixed-width record fields
@pytest.mark.parametrize("change, message", [
    (lambda doc: doc.update(duration_ticks=1 << 32),
     "duration_ticks must fit u32 timestamps"),
    (lambda doc: doc.update(seed=1 << 64), "seed must fit u64"),
    (lambda doc: doc["edges"].append([20, 20]), "self-loop edge on node 20"),
    (lambda doc: doc["nodes"].append({"id": 98, "role": "fusion_center"}),
     "multiple fusion centers: [98, 99]"),
    (lambda doc: doc["nodes"].append({"id": 1 << 16, "role": "relay"}),
     "node id 65536 does not fit u16"),
], ids=["duration", "seed", "self-loop", "fusion-centers", "node-id"])
def test_each_validation_bound_is_one_error_line_and_exit_2(change, message,
                                                            tmp_path, capsys):
    doc = json.loads(CONFIG_PATH.read_text())
    change(doc)
    with pytest.raises(InvalidConfigError) as raised:
        config_from_dict(doc)
    assert raised.value.problems == [message]
    config_path = tmp_path / "invalid.json"
    config_path.write_text(json.dumps(doc))
    assert run(["simulate", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_simulate_missing_config_is_usage_error(tmp_path):
    assert run(["simulate", "--config", str(tmp_path / "none.json")]) == 2


def test_simulate_invalid_config_is_usage_error(tmp_path, capsys):
    doc = json.loads(CONFIG_PATH.read_text())
    doc["keys"] = {}
    config_path = tmp_path / "invalid.json"
    config_path.write_text(json.dumps(doc))
    assert run(["simulate", "--config", str(config_path)]) == 2
    assert "sink 30 has no key" in capsys.readouterr().err


def test_simulate_config_problems_are_one_error_line_each(tmp_path, capsys):
    doc = json.loads(CONFIG_PATH.read_text())
    doc["keys"] = {}
    doc["duration_ticks"] = 0
    config_path = tmp_path / "invalid.json"
    config_path.write_text(json.dumps(doc))
    assert run(["simulate", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: duration_ticks must be >= 1\n"
        "error: sink 30 has no key\n"
    )


def test_simulate_malformed_config_exits_cleanly(tmp_path):
    doc = json.loads(CONFIG_PATH.read_text())
    doc["routes"] = list(doc["routes"].values())
    cases = {
        "list-routes.json": (json.dumps(doc).encode(),
                             "'routes' must be a JSON object"),
        "utf-16.json": (b"\xff\xfe" + CONFIG_PATH.read_text().encode("utf-16-le"),
                        "config is not UTF-8"),
        "repeated-key.json": (
            CONFIG_PATH.read_bytes().replace(
                b'"keys": {', b'"keys": {"30": "0101", '),
            "config repeats the key '30'"),
        "deep.json": (b"[" * 200_000, "config exceeds a JSON parser limit"),
        "long-seed.json": (
            json.dumps({**doc, "seed": None}).replace(
                '"seed": null', '"seed": ' + "9" * 5000).encode(),
            "config exceeds a JSON parser limit"),
    }
    for name, (content, message) in cases.items():
        config_path = tmp_path / name
        config_path.write_bytes(content)
        done = subprocess.run(
            [sys.executable, "-m", "wsncrypt", "simulate", "--config",
             str(config_path)],
            capture_output=True, text=True,
        )
        assert done.returncode == 2, name
        assert message in done.stderr
        assert "Traceback" not in done.stderr


# -- vectors ----------------------------------------------------------------------


def test_vectors_pass(capsys):
    assert run(["vectors"]) == 0
    out = capsys.readouterr().out
    assert "216" in out and "219" in out and "10100101" in out
    assert "all vectors match" in out


def test_vectors_output_is_stable(capsys):
    run(["vectors"])
    first = capsys.readouterr().out
    run(["vectors"])
    assert capsys.readouterr().out == first


VECTORS_OUTPUT = """\
encryption (key 'Z' = 90, bits 01011010 -> shuffled 10100101)
char byte     bits shuffled    xored inverted out
   A   65 01000001 10000010 00100111 11011000 216
   B   66 01000010 10000001 00100100 11011011 219
decryption
byte     bits inverted    xored shuffled char
 216 11011000 00100111 10000010 01000001    A
 219 11011011 00100100 10000001 01000010    B
all vectors match
"""


def test_vectors_output_is_pinned(capsys):
    assert run(["vectors"]) == 0
    assert capsys.readouterr().out == VECTORS_OUTPUT


def test_vectors_detect_broken_cipher(capsys, monkeypatch):
    # negative control: a corrupted primitive must fail the self-check
    monkeypatch.setattr(cli, "encrypt", lambda data, key: b"\x00" * len(data))
    assert run(["vectors"]) == 1
    assert "vector mismatch" in capsys.readouterr().err
