"""Tests of the benchmark itself: python3 -m pytest wsnbench/tests -q"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SIMS = [workloads.SimWide, workloads.SimSparse]
SEEDS = [0, 1, 2, 1510, 987654321]


@pytest.fixture(scope="module")
def ws():
    return run.import_package()


@pytest.mark.parametrize("cls", SIMS)
def test_a_seed_always_generates_the_same_config(cls, tmp_path):
    first = cls(7, str(tmp_path)).doc
    assert cls(7, str(tmp_path)).doc == first
    assert cls(8, str(tmp_path)).doc != first


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_a_seed_always_generates_the_same_cases(cls, tmp_path):
    def snapshot(seed):
        cases = cls(seed, str(tmp_path)).cases
        return [c if isinstance(c, tuple) else Path(c).read_bytes() for c in cases]

    assert snapshot(7) == snapshot(7)
    assert snapshot(7) != snapshot(8)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cls", SIMS)
def test_every_generated_config_validates(cls, seed, ws, tmp_path):
    workload = cls(seed, str(tmp_path))
    workload.prepare(ws)  # load_config raises InvalidConfigError on any problem
    assert ws.validate_topology(workload.config.topology) == []
    assert len(workload.doc["nodes"]) == (1073 if cls is workloads.SimWide else 71)


def test_oracle_report_matches_a_small_run(ws, tmp_path):
    workload = workloads.SimSparse(3, str(tmp_path))
    workload.doc["duration_ticks"] = 3000
    config = ws.config_from_dict(workload.doc)
    got = workloads.canonical(ws.report_to_dict(ws.run_simulation(config)))
    assert got == workloads.canonical(workloads.expected_report(workload.doc))


def _snapshot(ws):
    modules = [m for n, m in sys.modules.items() if n.startswith("wsncrypt")]
    state = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    state.update({("Topology", k): v for k, v in vars(ws.Topology).items()})
    return state


def test_wrappers_are_seen_by_callers_and_restored(ws):
    spec = run.load_spec()
    names = [m["name"] for m in spec["per_layer"]]
    targets = sorted({n.rsplit(".", 1)[0] for n in names} - {"trace"})
    tracer = tracing.Tracer(targets)
    before = _snapshot(ws)
    with tracing.install(tracer, ws):
        assert ws.sim.encrypt is not before[(id(ws.sim), "encrypt")]
        assert ws.keyspace.encrypt is ws.sim.encrypt is ws.cipher.encrypt
        assert ws.sim.validate_topology is ws.topology.validate_topology
        ws.keyspace.exhaustive_search(b"AB", ws.cipher.encrypt(b"AB", b"\x01"), 1)
    assert _snapshot(ws) == before
    stats = tracer.summary()
    assert stats["cipher.encrypt"][0] == 1 + 2  # the direct call plus keys 0 and 1
    assert tracer.work["keyspace.exhaustive_search"] == 2
    assert stats["keyspace.exhaustive_search"][1] >= 0


def test_wrappers_are_restored_when_the_body_raises(ws):
    tracer = tracing.Tracer(["cipher.encrypt", "topology.node_map"])
    before = _snapshot(ws)
    with pytest.raises(RuntimeError):
        with tracing.install(tracer, ws):
            raise RuntimeError("boom")
    assert _snapshot(ws) == before


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer(["outer", "inner"])
    tracer.name.extend([0, 1])
    tracer.parent.extend([-1, 0])
    tracer.start.extend([0.0, 1.0])
    tracer.end.extend([10.0, 4.0])
    assert tracer.summary() == {"outer": [1, 7.0], "inner": [1, 3.0]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pinned_digests_hold(name, ws, tmp_path):
    assert run.check_pins(name, ws, str(tmp_path), run.load_pins()) == (2, 0)


def test_digest_gate_fails_on_a_changed_output(ws, tmp_path, monkeypatch):
    encrypt = ws.cipher.encrypt

    def off_by_one(plain, key):
        out = bytearray(encrypt(plain, key))
        out[-1] ^= 1
        return bytes(out)

    monkeypatch.setattr(ws.cli, "encrypt", off_by_one)
    pins = run.load_pins()
    assert run.check_pins("file-encrypt", ws, str(tmp_path), pins) == (2, 2)
    workload = workloads.FileEncrypt(5, str(tmp_path))
    case = workload.cases[0]
    assert workload.run(ws, case)[2] != workload.expected(case)


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "wsnbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "wsnbench/run.py", "--workload", "attack-recover",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "wsncrypt" in proc.stderr


def test_spec_matches_what_the_benchmark_emits():
    spec = run.load_spec()
    assert [m["name"] for m in spec["end_to_end"]] == ["items_per_s", "peak_rss_mb", "setup_s"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for metric in spec["per_layer"]:
        target, suffix = metric["name"].rsplit(".", 1)
        assert target == "trace" or suffix in (
            "calls", "self_s", "bytes", "keys_tried", "us_per_call", "MBps"
        )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("cls", [workloads.FileEncrypt, workloads.FileDecrypt])
def test_streamed_file_cases_match_the_whole_file_oracle(cls, tmp_path):
    for path, key_hex, size, target in cls(2, str(tmp_path)).cases:
        source = Path(path).read_bytes()
        assert len(source) == size
        key = bytes.fromhex(key_hex)
        if cls is workloads.FileEncrypt:
            assert workloads.sha256(workloads.oracle_encrypt(source, key)) == target
        else:
            # The cipher's byte table is an involution, so this inverts it.
            plain = workloads._xor(
                source.translate(workloads._SWAP_NOT), workloads._repeat(key, size)
            )
            assert workloads.sha256(plain) == target
            assert workloads.oracle_encrypt(plain, key) == source
