#!/usr/bin/env python3
"""Compare two pipebench programs over alternating pairs of runs.

Usage (from the repository root):

    python3 scripts/pipebench_pairs.py --base OLD_BINARY --new NEW_BINARY \\
        --workload lossy_intermittent --pairs 10 --seconds 35 \\
        [--first-seed 1] [--trace 0|1]

Build each program with pipebench/run.py in its own checkout (the binary is
.bench_build/pipebench/pipebench there). Pair i runs both programs on seed
first_seed + i, one after the other; the order flips every pair, so a drift
in the host's speed falls on both sides alike. For every metric of the
result lines (the end-to-end ones with --trace 0, the per-layer ones with
--trace 1) it prints both sides' values after every pair, then each side's
median and interquartile range, the ratio of the medians, and in how many
pairs the new program did better. The
direction of "better" comes from BENCHMARK.json ("lower" when a metric is
not listed there).

Exits non-zero when a run fails or reports correct=false, or when the two
programs print different "fingerprint" lines for the same seed: the
fingerprint is the deterministic outcome of a run, so a change meant to be
output-preserving must leave it alone. Stdlib only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def directions():
    """Maps metric name to True when lower is better."""
    out = {}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return out
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            out[m["name"]] = m.get("better", "lower") == "lower"
    return out


def run_once(binary, workload, seed, seconds, trace):
    """Runs one program; returns (fingerprint, {metric: value})."""
    with tempfile.TemporaryDirectory(prefix="pipebench_pairs_") as out_dir:
        cmd = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", out_dir]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=5 * seconds + 300)
    lines = proc.stdout.splitlines()
    fingerprints = [l for l in lines if l.startswith("fingerprint ")]
    if proc.returncode != 0 or len(fingerprints) != 1 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"{' '.join(cmd)} reported correct=false")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return fingerprints[0], metrics


def spread(values):
    """(median, interquartile range) of a list of numbers."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="the reference program")
    ap.add_argument("--new", required=True, help="the program under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    lower_is_better = directions()
    base_runs, new_runs = [], []
    fingerprint_mismatches = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("base", args.base), ("new", args.new)]
        if i % 2:
            order.reverse()
        got = {}
        for side, binary in order:
            got[side] = run_once(binary, args.workload, seed, args.seconds,
                                 args.trace)
        if got["base"][0] != got["new"][0]:
            fingerprint_mismatches.append(seed)
        base_runs.append(got["base"][1])
        new_runs.append(got["new"][1])
        values = " ".join(
            f"{k}={v:.6g}->{got['new'][1].get(k, float('nan')):.6g}"
            for k, v in got["base"][1].items())
        print(f"pair {i + 1}/{args.pairs} seed {seed} (base->new): {values}; "
              f"fingerprints "
              f"{'match' if got['base'][0] == got['new'][0] else 'DIFFER'}",
              flush=True)

    names = [n for n in base_runs[0] if all(n in r for r in base_runs + new_runs)]
    print(f"workload {args.workload}, {args.pairs} pairs, seeds "
          f"{args.first_seed}-{args.first_seed + args.pairs - 1}, "
          f"--seconds {args.seconds:g} --trace {args.trace}")
    print(f"{'metric':<34} {'base median':>12} {'base IQR':>10} "
          f"{'new median':>12} {'new IQR':>10} {'new/base':>9} {'new better':>11}")
    for name in names:
        b = [r[name] for r in base_runs]
        n = [r[name] for r in new_runs]
        bm, biqr = spread(b)
        nm, niqr = spread(n)
        lower = lower_is_better.get(name, True)
        wins = sum(1 for x, y in zip(b, n) if (y < x if lower else y > x))
        ratio = f"{nm / bm:.3f}" if bm else "-"
        print(f"{name:<34} {bm:>12.6g} {biqr:>10.4g} {nm:>12.6g} {niqr:>10.4g} "
              f"{ratio:>9} {wins:>5}/{args.pairs:<5}")
    if fingerprint_mismatches:
        print("fingerprints differ for seeds "
              + ", ".join(str(s) for s in fingerprint_mismatches))
        return 1
    print("fingerprints identical in every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
