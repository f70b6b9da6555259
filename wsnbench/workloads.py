"""Seeded inputs, oracles and timed operations for the wsncrypt benchmark.

Every input is generated here from the run's seed with `random.Random`, never
with the package's own generators, and every expected output comes from an
oracle written here, so a change to the package cannot move its own
yardstick.  Nothing in this module imports `wsncrypt`: each operation is
handed the freshly imported package `ws` and looks every function up on it at
call time, so the tracer's wrappers are seen when they are installed.

A workload is a fixed cycle of cases.  `run` times exactly one public-API
call per case and returns (seconds, items, output), where items counts the
workload's unit of work (readings, file bytes, candidate keys, known bytes)
and output is the bytes the oracle's `expected` must equal.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time

KINDS = ("scalar", "audio", "video")
HUBS_PER_SINK = 4
# File inputs are generated and hashed this many bytes at a time.  It is a
# multiple of every key length, so each chunk starts the repeated key afresh.
CHUNK = 64 << 10
# Staggered primes near 1,000 ticks: the sparse network is idle >99% of ticks.
SPARSE_PERIODS = (997, 1009, 1013, 1019)

_SWAP = bytes(((b & 0x55) << 1) | ((b & 0xAA) >> 1) for b in range(256))
# Pair swap and complement commute with XOR, so a whole encryption is
# (plain XOR repeated key) pushed through this one table.
_SWAP_NOT = bytes(s ^ 0xFF for s in _SWAP)
_BITS = [bytes((b >> s) & 1 for s in range(7, -1, -1)) for b in range(256)]


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def digest(outputs) -> str:
    """Digest of a workload's outputs, case by case, as pinned in pins.json."""
    return hashlib.sha256(b"".join(sha256(o) for o in outputs)).hexdigest()


def _repeat(key: bytes, length: int) -> bytes:
    return (key * (-(-length // len(key))))[:length]


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        len(a), "big"
    )


def oracle_encrypt(plain: bytes, key: bytes) -> bytes:
    return _xor(plain, _repeat(key, len(plain))).translate(_SWAP_NOT)


def oracle_keystream_bits(key: bytes, length: int) -> bytes:
    """The key's bits, MSB first, repeated over `length` bytes, one per byte."""
    return b"".join(_BITS[b] for b in _repeat(key, length))


# -- simulations ---------------------------------------------------------------


def network_doc(rnd, hubs, sensors_per_hub, duration_ticks, periods):
    """Sensor -> hub -> relay -> sink -> fusion center config document.

    One sink, behind one relay, serves every four hubs.  Node ids are a
    seeded sample of u16 ids, kinds cycle scalar/audio/video from a seeded
    offset, and `periods` (None for the global period of 1) cycles over the
    sensors.  Nodes and edges are listed in seeded order.
    """
    sinks = -(-hubs // HUBS_PER_SINK)
    count = 1 + 2 * sinks + hubs + hubs * sensors_per_hub
    ids = iter(rnd.sample(range(1, 0x10000), count))
    fusion = next(ids)
    nodes = [{"id": fusion, "role": "fusion_center"}]
    edges, routes, keys, relays = [], {}, {}, []
    for _ in range(sinks):
        sink, relay = next(ids), next(ids)
        nodes += [{"id": sink, "role": "sink"}, {"id": relay, "role": "relay"}]
        edges += [[relay, sink], [sink, fusion]]
        routes[str(sink)] = [sink, fusion]
        keys[str(sink)] = rnd.randbytes(rnd.randint(1, 32)).hex()
        relays.append((relay, sink))
    offset = rnd.randrange(len(KINDS))
    index = 0
    for h in range(hubs):
        hub = next(ids)
        relay, sink = relays[h // HUBS_PER_SINK]
        nodes.append({"id": hub, "role": "hub"})
        edges.append([hub, relay])
        routes[str(hub)] = [hub, relay, sink]
        for _ in range(sensors_per_hub):
            sensor = {
                "id": next(ids),
                "role": "sensor",
                "kind": KINDS[(index + offset) % len(KINDS)],
            }
            if periods is not None:
                sensor["sense_period_ticks"] = periods[index % len(periods)]
            nodes.append(sensor)
            edges.append([sensor["id"], hub])
            index += 1
    rnd.shuffle(nodes)
    rnd.shuffle(edges)
    return {
        "nodes": nodes,
        "edges": edges,
        "routes": routes,
        "keys": keys,
        "seed": rnd.getrandbits(64),
        "duration_ticks": duration_ticks,
        "sense_period_ticks": 1 if periods is None else 1000,
        "hop_latency_ticks": 1,
    }


def expected_report(doc) -> dict:
    """The report of a corruption-free run, counted from the config alone.

    Each sensor fires floor(duration / period) times; a hub sends one frame
    per tick on which any of its sensors fired; every frame is delivered and
    every reading recovered.
    """
    roles = {n["id"]: n["role"] for n in doc["nodes"]}
    periods = {
        n["id"]: n.get("sense_period_ticks", doc["sense_period_ticks"])
        for n in doc["nodes"]
        if n["role"] == "sensor"
    }
    sensors_of = {}
    for a, b in doc["edges"]:
        for sensor, hub in ((a, b), (b, a)):
            if roles[sensor] == "sensor" and roles[hub] == "hub":
                sensors_of.setdefault(hub, []).append(sensor)
    duration = doc["duration_ticks"]
    per_sink = {int(s): [0, 0] for s in doc["keys"]}
    for hub, sensors in sensors_of.items():
        ticks = set()
        for sensor in sensors:
            ticks.update(range(periods[sensor], duration + 1, periods[sensor]))
        sink = doc["routes"][str(hub)][-1]
        per_sink[sink][0] += len(ticks)
        per_sink[sink][1] += sum(duration // periods[s] for s in sensors)
    frames = sum(f for f, _ in per_sink.values())
    readings = sum(r for _, r in per_sink.values())
    return {
        "readings_sensed": readings,
        "frames_sent": frames,
        "frames_delivered": frames,
        "frames_rejected": {},
        "readings_recovered": readings,
        "fidelity_ok": True,
        "per_sink": {
            str(sink): {
                "frames_sent": f,
                "frames_delivered": f,
                "frames_rejected": 0,
                "readings_recovered": r,
            }
            for sink, (f, r) in per_sink.items()
        },
    }


class Workload:
    """A cycle of `cases`; `prepare` is the set-up a user pays before them."""

    reference = "interpreter"  # kind of calibration loop, see run.REFERENCE_S

    def prepare(self, ws):
        pass


class Simulation(Workload):
    """One generated network, loaded once per set-up and run once per case."""

    label, scale, unit = "readings_per_s", 1.0, "1/s"

    def __init__(self, seed, workdir):
        rnd = random.Random(f"{self.name}:{seed}")
        self.doc = network_doc(
            rnd, self.hubs, self.sensors_per_hub, self.duration, self.periods
        )
        self.path = os.path.join(workdir, f"{self.name}-{seed}.json")
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(self.doc, handle)
        self.cases = [self.path]
        self.config = None

    def describe(self):
        return f"{len(self.doc['nodes'])} nodes, {self.duration} ticks per run"

    def prepare(self, ws):
        self.config = ws.sim.load_config(self.path)

    def run(self, ws, case):
        start = time.perf_counter()
        report = ws.sim.run_simulation(self.config)
        seconds = time.perf_counter() - start
        return seconds, report.readings_sensed, canonical(ws.sim.report_to_dict(report))

    def expected(self, case):
        return canonical(expected_report(self.doc))


class SimWide(Simulation):
    name = "sim-wide"
    hubs, sensors_per_hub, duration, periods = 32, 32, 8, None


class SimSparse(Simulation):
    name = "sim-sparse"
    hubs, sensors_per_hub, duration, periods = 4, 16, 50_000, SPARSE_PERIODS


# -- file encryption through the CLI ---------------------------------------------


class FileCrypt(Workload):
    """`wsncrypt encrypt|decrypt --in F --key-hex K --out G`, in process.

    Three file sizes, each under a 1-, 8- and 32-byte key.  Decryption reads
    the oracle's ciphertexts of seeded plaintexts.
    """

    SIZES = (48 << 10, 640 << 10, 4 << 20)
    KEY_LENGTHS = (1, 8, 32)
    scale, unit = 1e-6, "MB/s"
    reference = "bulk"

    def __init__(self, seed, workdir):
        rnd = random.Random(f"{self.name}:{seed}")
        self.out_path = os.path.join(workdir, f"{self.name}-{seed}.out")
        self.cases = []
        for size in self.SIZES:
            plain_seed = rnd.getrandbits(64)
            for key_length in self.KEY_LENGTHS:
                key = rnd.randbytes(key_length)
                path = os.path.join(
                    workdir, f"{self.name}-{seed}-{size}-{key_length}.in"
                )
                target = self._write(path, random.Random(plain_seed), size, key)
                self.cases.append((path, key.hex(), size, target))

    def _write(self, path, plain_rnd, size, key):
        """Write the input file CHUNK bytes at a time; the target's sha256.

        Streaming keeps the benchmark's own memory peak far below the CLI's,
        which holds whole files, so `peak_rss_mb` is the program's.
        """
        target = hashlib.sha256()
        with open(path, "wb") as handle:
            for offset in range(0, size, CHUNK):
                plain = plain_rnd.randbytes(min(CHUNK, size - offset))
                cipher = oracle_encrypt(plain, key)
                source, result = (
                    (plain, cipher) if self.command == "encrypt" else (cipher, plain)
                )
                handle.write(source)
                target.update(result)
        return target.digest()

    def describe(self):
        return f"{len(self.cases)} files of {sum(c[2] for c in self.cases)} bytes"

    def run(self, ws, case):
        path, key_hex, size, _ = case
        argv = [self.command, "--in", path, "--key-hex", key_hex, "--out", self.out_path]
        start = time.perf_counter()
        code = ws.cli.main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            return seconds, size, f"exit {code}".encode()
        with open(self.out_path, "rb") as handle:
            return seconds, size, hashlib.file_digest(handle, "sha256").digest()

    def expected(self, case):
        return case[3]


class FileEncrypt(FileCrypt):
    name, command, label = "file-encrypt", "encrypt", "encrypt_MBps"


class FileDecrypt(FileCrypt):
    name, command, label = "file-decrypt", "decrypt", "decrypt_MBps"


# -- attacks ---------------------------------------------------------------------


class AttackSearch(Workload):
    """`exhaustive_search` for seeded 2-byte keys over 16-byte known blocks.

    The scan is lexicographic, so a key of value v costs v + 1 candidates.
    """

    name, label, scale, unit = "attack-search", "attack_keys_per_s", 1.0, "1/s"
    CASES, BLOCK, KEY_BYTES = 8, 16, 2

    def __init__(self, seed, workdir):
        rnd = random.Random(f"{self.name}:{seed}")
        self.cases = []
        for _ in range(self.CASES):
            plain = rnd.randbytes(self.BLOCK)
            key = rnd.randbytes(self.KEY_BYTES)
            self.cases.append((plain, oracle_encrypt(plain, key), key))

    def describe(self):
        tried = sum(int.from_bytes(c[2], "big") + 1 for c in self.cases)
        return f"{len(self.cases)} searches, {tried} candidates per cycle"

    def run(self, ws, case):
        plain, cipher, _ = case
        start = time.perf_counter()
        key = ws.keyspace.exhaustive_search(plain, cipher, self.KEY_BYTES)
        seconds = time.perf_counter() - start
        if key is None:
            return seconds, 1 << (8 * self.KEY_BYTES), b""
        return seconds, int.from_bytes(key, "big") + 1, key

    def expected(self, case):
        return case[2]


class AttackRecover(Workload):
    """`recover_keystream` on seeded 4 KiB known blocks under 1..32-byte keys."""

    name, label, scale, unit = "attack-recover", "recover_MBps", 1e-6, "MB/s"
    CASES, BLOCK = 8, 4096

    def __init__(self, seed, workdir):
        rnd = random.Random(f"{self.name}:{seed}")
        self.cases = []
        for _ in range(self.CASES):
            plain = rnd.randbytes(self.BLOCK)
            key = rnd.randbytes(rnd.randint(1, 32))
            self.cases.append((plain, oracle_encrypt(plain, key), key))

    def describe(self):
        return f"{len(self.cases)} blocks of {self.BLOCK} bytes"

    def run(self, ws, case):
        plain, cipher, _ = case
        start = time.perf_counter()
        bits = ws.keyspace.recover_keystream(plain, cipher)
        seconds = time.perf_counter() - start
        return seconds, len(plain), bytes(bits)

    def expected(self, case):
        plain, _, key = case
        return oracle_keystream_bits(key, len(plain))


WORKLOADS = {
    w.name: w
    for w in (SimWide, SimSparse, FileEncrypt, FileDecrypt, AttackSearch, AttackRecover)
}
