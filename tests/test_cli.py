import json
from pathlib import Path

import pytest

import wsncrypt.cli as cli
from wsncrypt.cipher import _BULK, encrypt

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "demo.json"


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
    import subprocess
    import sys

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


# -- attack -----------------------------------------------------------------------


def test_attack_recovers_worked_example(capsys):
    assert run(["attack", "--plain-hex", "4142", "--cipher-hex", "d8db",
                "--key-bytes", "1"]) == 0
    assert capsys.readouterr().out.strip() == "5a"


def test_attack_round_trip(capsys):
    from wsncrypt.cipher import encrypt

    key = bytes.fromhex("c01d")
    cipher = encrypt(b"attack at dawn", key)
    assert run(["attack", "--plain-hex", b"attack at dawn".hex(),
                "--cipher-hex", cipher.hex(), "--key-bytes", "2"]) == 0
    assert capsys.readouterr().out.strip() == "c01d"


def test_attack_not_found(capsys):
    assert run(["attack", "--plain-hex", "4142", "--cipher-hex", "c8db",
                "--key-bytes", "1"]) == 4
    assert capsys.readouterr().out.strip() == "not found"


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


def test_simulate_missing_config_is_usage_error(tmp_path):
    assert run(["simulate", "--config", str(tmp_path / "none.json")]) == 2


def test_simulate_invalid_config_is_usage_error(tmp_path, capsys):
    doc = json.loads(CONFIG_PATH.read_text())
    doc["keys"] = {}
    config_path = tmp_path / "invalid.json"
    config_path.write_text(json.dumps(doc))
    assert run(["simulate", "--config", str(config_path)]) == 2
    assert "sink 30 has no key" in capsys.readouterr().err


def test_simulate_malformed_config_exits_cleanly(tmp_path):
    import subprocess
    import sys

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


def test_vectors_detect_broken_cipher(capsys, monkeypatch):
    # negative control: a corrupted primitive must fail the self-check
    monkeypatch.setattr(cli, "encrypt", lambda data, key: b"\x00" * len(data))
    assert run(["vectors"]) == 1
    assert "vector mismatch" in capsys.readouterr().err
