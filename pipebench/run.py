#!/usr/bin/env python3
"""Whole-pipeline benchmark for the SDNProbe library.

Usage (from the repository root):

    python3 pipebench/run.py --workload table2_topo3 --seed 1 --seconds 35 --trace 0

Builds the library and the benchmark program from source into
.bench_build/pipebench (first run only; later runs rebuild incrementally),
then runs one workload in its own process and prints, as the last line of
stdout, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced repetition (and writes a Chrome trace-event file plus a
per-layer table under .bench_build/pipebench/runs/). Exits non-zero, without
a result line, when the build fails, and with correct=false when any
correctness check fails. See pipebench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
BINARY = os.path.join(BUILD, "pipebench")
RUNS = os.path.join(BUILD, "runs")
WORKLOADS = ("table2_topo3", "lossy_intermittent", "monitor_steady")
BUILD_TIMEOUT_S = 600  # all build steps together; a cold build takes ~40 s
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"pipebench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, deadline):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic())
                              ).returncode == 0
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {ROOT}/src; cannot build")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD, "-j", jobs]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for attempt in range(2):
        if attempt == 1:
            # A stale or foreign cache (e.g. a moved checkout): start over.
            shutil.rmtree(BUILD, ignore_errors=True)
        have_cache = os.path.isfile(os.path.join(BUILD, "CMakeCache.txt"))
        if ((have_cache or run_quiet(configure, deadline))
                and run_quiet(compile_, deadline)):
            return os.path.isfile(BINARY)
    return False


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_repeatable(key, fingerprint):
    """The deterministic outputs of a (binary, workload, seed, mode) must
    repeat exactly across runs, on any core count; remembers the first
    run's in a cache file."""
    path = os.path.join(RUNS, "fingerprints.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    if key in seen:
        if seen[key] != fingerprint:
            log(f"outputs differ from an earlier run with the same seed:\n"
                f"  before: {seen[key]}\n  now:    {fingerprint}")
            return False
        return True
    seen[key] = fingerprint
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=0, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    os.makedirs(RUNS, exist_ok=True)

    env = dict(os.environ)
    # The program enables telemetry itself, for the traced repetition only.
    env.pop("SDNPROBE_METRICS", None)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", RUNS]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"no result line (exit code {proc.returncode})")
        return 1
    fingerprint = next((l[len("fingerprint "):] for l in lines
                        if l.startswith("fingerprint ")), "")
    key = ":".join([file_digest(BINARY), args.workload, str(args.seed),
                    str(args.trace)])
    result["attempted"] += 1
    if not check_repeatable(key, fingerprint):
        result["failed"] += 1
        result["correct"] = False

    for line in lines[:-1]:
        if not line.startswith("fingerprint "):
            print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
