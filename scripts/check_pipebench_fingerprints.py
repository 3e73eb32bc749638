#!/usr/bin/env python3
"""Check pipebench's deterministic outputs against committed golden lines.

Usage (from the repository root, once pipebench/run.py has built the
program):

    python3 scripts/check_pipebench_fingerprints.py [--binary PATH] [--update]

Runs the pipebench program for every (workload, seed) listed in
scripts/pipebench_fingerprints.txt with --seconds 1 --trace 0 and compares
the "fingerprint" line it prints with the golden one: every field exactly,
except the flagged_at_s list of simulated detection times, which is compared
to 1e-9 so that another compiler's floating-point rounding does not fail the
check. --update rewrites the golden lines from the program instead, for a
change that alters the outputs on purpose. Exits non-zero on any mismatch.
Stdlib only.
"""
import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "scripts", "pipebench_fingerprints.txt")
BINARY = os.path.join(ROOT, ".bench_build", "pipebench", "pipebench")
TIMES = "flagged_at_s="
TOLERANCE = 1e-9
RUN_TIMEOUT_S = 600


def read_golden(path):
    """Returns the header comment lines and the [workload, seed, fingerprint]
    entries of the golden file."""
    header, entries = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#") or not line.strip():
                header.append(line)
            else:
                workload, seed, fingerprint = line.split(" ", 2)
                entries.append([workload, seed, fingerprint])
    return header, entries


def run_fingerprint(binary, workload, seed, out_dir):
    cmd = [binary, "--workload", workload, "--seed", seed, "--seconds", "1",
           "--trace", "0", "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines()
             if l.startswith("fingerprint ")]
    if proc.returncode != 0 or len(lines) != 1:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} with "
                           f"{len(lines)} fingerprint line(s)")
    return lines[0][len("fingerprint "):]


def times(field):
    return [float(t) for t in field[len(TIMES):].split(",") if t]


def differences(golden, got):
    """The fields in which two fingerprints differ; empty when they match."""
    expected, found = golden.split(), got.split()
    out = []
    if len(expected) != len(found):
        out.append(f"{len(expected)} fields expected, {len(found)} found")
    for a, b in zip(expected, found):
        if a == b:
            continue
        if a.startswith(TIMES) and b.startswith(TIMES):
            ta, tb = times(a), times(b)
            if len(ta) == len(tb) and all(
                    abs(x - y) <= TOLERANCE for x, y in zip(ta, tb)):
                continue
        out.append(f"expected {a!r}, got {b!r}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--binary", default=BINARY)
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()

    header, entries = read_golden(GOLDEN)
    failed = False
    with tempfile.TemporaryDirectory() as out_dir:
        for entry in entries:
            workload, seed, golden = entry
            got = run_fingerprint(args.binary, workload, seed, out_dir)
            if args.update:
                entry[2] = got
                print(f"updated {workload} seed {seed}")
                continue
            diff = differences(golden, got)
            failed = failed or bool(diff)
            print(f"{'FAIL' if diff else 'OK'} {workload} seed {seed}")
            for d in diff:
                print(f"  {d}")
    if args.update:
        with open(GOLDEN, "w", encoding="utf-8") as f:
            for line in header:
                f.write(line + "\n")
            for workload, seed, fingerprint in entries:
                f.write(f"{workload} {seed} {fingerprint}\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
