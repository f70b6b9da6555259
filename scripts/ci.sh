#!/usr/bin/env bash
# Every step of the CI workflow (.github/workflows/tests.yml), run in order
# from the repository root:
#
#     bash scripts/ci.sh
#
# Each step runs in its own `set -e` subshell, as a workflow `run:` step runs
# under `bash -e`, and every step runs even when an earlier one failed.  Each
# step's name and exit code are printed as it ends and again in a summary;
# the script exits 1 if any step failed.
#
# Where the steps find `wsncrypt`: in CI the Install step puts the console
# script on PATH, so the two "Installed console script" steps and the
# "Streamed file round trip" run the installed entry point, and the attack
# experiment, the demo simulation and the scale ladder import the installed
# package.  The tier-1 tests and the benchmark import `src` either way.
# Where `pip install` cannot run (offline, or without the setuptools that
# pyproject.toml asks for), Install fails and is reported as failed; the
# other steps can still run against `src`, with a shim on PATH standing in
# for the entry point.  Offline, pip's own PIP_NO_INDEX=1 keeps Install from
# reaching for a package index:
#
#     shim="$(mktemp -d)"
#     printf '#!/bin/sh\nexec python -m wsncrypt "$@"\n' > "$shim/wsncrypt"
#     chmod +x "$shim/wsncrypt"
#     PIP_NO_INDEX=1 PATH="$shim:$PATH" PYTHONPATH=src bash scripts/ci.sh
#
# RUNNER_TEMP is the runner's scratch directory in CI; elsewhere a temporary
# directory stands in for it and is removed at exit.

cd "$(dirname "$0")/.." || exit 2

if [ -z "${RUNNER_TEMP:-}" ]; then
    RUNNER_TEMP="$(mktemp -d)" || exit 2
    trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
export RUNNER_TEMP

# the workflow's `if: matrix.python-version == '3.11'`, read off the interpreter
if python -c 'import sys; sys.exit(sys.version_info[:2] != (3, 11))'; then
    py311=1
else
    py311=0
fi

summary=()
failed=0

step() {  # step NAME COMMAND [ARG...]
    echo "=== $1"
    (set -e; "${@:2}")
    local code=$?
    echo "=== $1: exit $code"
    summary+=("exit $code  $1")
    [ "$code" -eq 0 ] || failed=1
}

py311_step() {  # py311_step NAME COMMAND [ARG...]: a step on Python 3.11 only
    if [ "$py311" -eq 1 ]; then
        step "$@"
    else
        echo "=== $1: skipped (Python 3.11 only)"
        summary+=("skip    $1")
    fi
}

install() {
    pip install -e '.[test]'
}

tier1() {
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
}

seeds() {  # seeds FILE SELECTION: pytest FILE -k SELECTION under hypothesis seeds 1-5
    for seed in 1 2 3 4 5; do
        PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -p no:cacheprovider \
            "$1" -k "$2" --hypothesis-seed="$seed"
    done
}

console_script() {
    wsncrypt vectors
    test "$(wsncrypt encrypt --in-hex 4142 --key-hex 5a)" = d8db
    test "$(wsncrypt keygen --key-bytes 8 --seed 1)" = bfef8030ddc2d772
    wsncrypt estimate --key-bits 64 --rate 1000000 | grep -qx 'years=292471'
    wsncrypt simulate --config configs/demo.json
    wsncrypt simulate --config configs/demo.json --report "$RUNNER_TEMP/r.json"
    python -c "import json,sys; json.load(open(sys.argv[1]))" "$RUNNER_TEMP/r.json"
    # the demo under a 32-byte sink key that the fusion center holds with
    # key byte 2 flipped in one bit: every frame decrypts to a batch that
    # still parses, so nothing is rejected, yet the run must fail fidelity
    python -c '
import json, sys
doc = json.load(open(sys.argv[1]))
key = bytes(range(1, 33))
doc["keys"] = {"30": key.hex()}
doc["fusion_registry"] = {"30": (key[:2] + bytes([key[2] ^ 0x40]) + key[3:]).hex()}
json.dump(doc, open(sys.argv[2], "w"))
' configs/demo.json "$RUNNER_TEMP/misregistered.json"
    code=0
    wsncrypt simulate --config "$RUNNER_TEMP/misregistered.json" > "$RUNNER_TEMP/m.json" || code=$?
    test "$code" -eq 1
    grep -qF '"frames_rejected": {}' "$RUNNER_TEMP/m.json"
    grep -qF '"fidelity_ok": false' "$RUNNER_TEMP/m.json"
    # stdout a pipe whose reader has gone, buffered and unbuffered: exit 3
    # with one error line, not a traceback
    for unbuffered in "" 1; do
        for command in "simulate --config configs/demo.json" vectors --help; do
            # shellcheck disable=SC2086  # the command's words are its argv
            PYTHONUNBUFFERED="$unbuffered" python -c '
import os, subprocess, sys
read_end, write_end = os.pipe()
os.close(read_end)
done = subprocess.run(sys.argv[1:], stdout=write_end, stderr=subprocess.PIPE, text=True)
sys.stderr.write(done.stderr)
sys.exit(done.returncode != 3 or len(done.stderr.splitlines()) != 1)
' wsncrypt $command
        done
    done
}

console_script_attack() {
    c="$(wsncrypt encrypt --in-hex 000102030405060708090a0b0c0d0e0f --key-hex ffffff)"
    test "$(wsncrypt attack --plain-hex 000102030405060708090a0b0c0d0e0f --cipher-hex "$c" --key-bytes 3)" = ffffff
}

attack_experiment() {
    python scripts/attack_experiment.py --instances 3 --max-key-bytes 3 --seed 1
}

streamed_round_trip() {
    head -c 8388608 /dev/urandom > "$RUNNER_TEMP/f"
    for key in 5a 00ff5a 000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f; do
        wsncrypt encrypt --in "$RUNNER_TEMP/f" --key-hex "$key" --out "$RUNNER_TEMP/g"
        wsncrypt decrypt --in "$RUNNER_TEMP/g" --key-hex "$key" --out "$RUNNER_TEMP/g"
        cmp "$RUNNER_TEMP/f" "$RUNNER_TEMP/g"
    done
    # a named pipe as the input, whose reads come back short; the writer is
    # killed on exit in case the reader failed before opening the pipe
    wsncrypt encrypt --in "$RUNNER_TEMP/f" --key-hex 00ff5a --out "$RUNNER_TEMP/g"
    rm -f "$RUNNER_TEMP/p"
    mkfifo "$RUNNER_TEMP/p"
    cat "$RUNNER_TEMP/g" > "$RUNNER_TEMP/p" &
    writer=$!
    trap 'kill "$writer" 2>/dev/null || true' EXIT
    wsncrypt decrypt --in "$RUNNER_TEMP/p" --key-hex 00ff5a --out "$RUNNER_TEMP/h"
    wait "$writer"
    cmp "$RUNNER_TEMP/f" "$RUNNER_TEMP/h"
}

demo_simulation() {
    python scripts/run_demo_sim.py
}

sim_scale() {
    python scripts/sim_scale.py
}

benchmark_tests() {
    python -m pytest -q wsnbench/tests
}

bench() {  # bench WORKLOAD TRACE
    python3 wsnbench/run.py --workload "$1" --seconds 1 --trace "$2"
}

step "Install" install
step "Tier-1 tests" tier1
step "Run order (tick-by-tick and group-limit reference properties, every frame's bytes, report totals as sums over sinks, hypothesis seeds 1-5)" seeds tests/test_sim.py "reference or totals_are_the_sums_over_sinks"
step "Keyed cipher (one encryptor and decryptor over messages that grow and shrink, against fresh calls and the reference, hypothesis seeds 1-5)" seeds tests/test_cipher.py keyed_once
step "Config properties (mutated demo configs end in a run or in one error line per problem, CLI included; every config that validates runs; hypothesis seeds 1-5)" seeds tests/test_sim.py "raises_only_invalid_config_error or every_config_that_validates"
step "Installed console script (wsncrypt entry point)" console_script
step "Installed console script attack (3-byte key ffffff, the last lane of the last pass)" console_script_attack
step "Attack experiment (1- to 3-byte searches, structure-blind trial rate and 64-bit years, key read off one block, effective keyspace)" attack_experiment
step "Streamed file round trip (8 MiB under 1-, 3- and 32-byte keys, decrypted in place; then decrypted from a named pipe)" streamed_round_trip
step "Demo simulation" demo_simulation
step "Simulator scale ladder (77 to 60,301 nodes and a rung where cohorts meet, reports against the benchmark's oracle)" sim_scale
step "Benchmark tests" benchmark_tests
step "Benchmark smoke run (fails on any pin or oracle mismatch)" bench sim-sparse 0
step "Sim-wide benchmark smoke run (untraced per-reading path against the pins)" bench sim-wide 0
step "Traced benchmark smoke run (stages still traced and matching the pins)" bench sim-wide 1
step "Traced sim-sparse smoke run (idle-heavy run, cohorts firing only on their periods, under the tracer gates)" bench sim-sparse 1
step "Attack-search benchmark smoke run (trial kernel against the pins)" bench attack-search 0
step "Traced attack-search smoke run (one confirming encrypt per search under the tracer gates)" bench attack-search 1
step "Attack-recover benchmark smoke run (one key period expanded and repeated, against the pins)" bench attack-recover 0
step "Traced attack-recover smoke run (period-repeat expansion matching the pins under the tracer gates)" bench attack-recover 1
py311_step "File-encrypt benchmark smoke run (bulk cipher path against the pins)" bench file-encrypt 0
py311_step "File-decrypt benchmark smoke run (bulk cipher path against the pins)" bench file-decrypt 0
py311_step "Traced file-encrypt smoke run (bulk cipher tables under the tracer gates)" bench file-encrypt 1
py311_step "Traced file-decrypt smoke run (bulk decrypt path under the tracer gates)" bench file-decrypt 1

echo
echo "=== summary"
printf '%s\n' "${summary[@]}"
exit "$failed"
