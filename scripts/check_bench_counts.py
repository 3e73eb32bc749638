#!/usr/bin/env python3
"""Check the deterministic counts of bench artifacts against golden values.

Usage (from the repository root, after the benches have written their
BENCH_<name>.json artifacts into DIR, e.g. with SDNPROBE_BENCH_DIR=DIR):

    python3 scripts/check_bench_counts.py [--dir DIR] [--update]

For every "<bench> <row> <key> <value>" line of scripts/bench_counts.txt,
reads DIR/BENCH_<bench>.json and compares the value of <key> in the selected
part of the artifact with the golden one, exactly. <row> selects:

    summary          the artifact's summary object
    <field>=<value>  the first row whose <field> holds <value>
    #<index>         the row at 0-based <index>, for rows whose naming
                     field has spaces (Table I's scenario names)

Host timings vary from run to run; these counts, rates and simulated
delays (Table II TPC, the MLPC ablation's probe counts, the Table I /
Fig. 9a / Fig. 9b FPR and FNR, the Fig. 8b / 8c / 9c simulated delays,
Fig. 9c's FNR rows, and bench_repair's heal verdict per fault kind:
detected, healed, quarantined, strategy, patches proposed, attempts,
rollbacks, fence reruns and simulated time to heal) do not. Neither do Table II's two work counters,
pinned so that losing either PCT index fails the check:
`edge_candidates` (cube tests of the step-1 edge candidates the rule
graph's leading-run index returns) and `augment_attempts` (augment() calls
of MLPC's worklist sweeps, over both restarts). --update rewrites the golden values from the artifacts instead, for
a change that alters them on purpose. Exits non-zero on any mismatch or
missing value. Stdlib only.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "scripts", "bench_counts.txt")


def read_golden(path):
    """Returns the header comment lines and the [bench, row, key, value]
    entries of the golden file."""
    header, entries = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#") or not line.strip():
                header.append(line)
            else:
                entries.append(line.split())
    return header, entries


def lookup(doc, row, key):
    """The value of `key` in the selected part of an artifact, or None."""
    if row == "summary":
        return doc.get("summary", {}).get(key)
    rows = doc.get("rows", [])
    if row.startswith("#"):
        index = int(row[1:])
        return rows[index].get(key) if 0 <= index < len(rows) else None
    field, _, want = row.partition("=")
    for r in rows:
        if str(r.get(field)) == want:
            return r.get(key)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dir", default="bench-artifacts")
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()

    header, entries = read_golden(GOLDEN)
    docs = {}
    failed = False
    for entry in entries:
        bench, row, key, golden = entry
        if bench not in docs:
            path = os.path.join(args.dir, f"BENCH_{bench}.json")
            with open(path, encoding="utf-8") as f:
                docs[bench] = json.load(f)
        got = lookup(docs[bench], row, key)
        got = None if got is None else str(got)
        name = f"{bench} {row} {key}"
        if args.update and got is not None:
            entry[3] = got
            print(f"updated {name} = {got}")
            continue
        ok = got == golden
        failed = failed or not ok
        print(f"{'OK' if ok else 'FAIL'} {name}: expected {golden}, got {got}")
    if args.update:
        with open(GOLDEN, "w", encoding="utf-8") as f:
            for line in header:
                f.write(line + "\n")
            for entry in entries:
                f.write(" ".join(entry) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
