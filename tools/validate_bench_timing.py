#!/usr/bin/env python3
"""Validate a BENCH_timing.json file against the kms-bench-timing-v2 schema.

Usage: validate_bench_timing.py <path>

Checks (stdlib only, no dependencies):
  * the file parses as JSON and carries schema "kms-bench-timing-v2";
  * "circuits" is a non-empty list with all required fields of the
    right type on every row;
  * per row, incremental_gate_visits <= full_gate_visits (the repair
    never visits more gates than the full passes it replaces), and
    repaired_fraction is consistent with the two counters;
  * summed over the whole suite, incremental visits are STRICTLY fewer
    than full visits — the engine must actually be saving work, not
    degenerating into per-edit rebuilds;
  * at least one row ran the loop (iterations >= 1), so the comparison
    is not vacuous.

Exit code 0 on success; 1 with a diagnostic on any violation (including
an empty or malformed file — the CI timing stage depends on that).
"""
import json
import sys

INT_FIELDS = [
    "gates", "iterations", "sta_applies", "sta_rebuilds",
    "incremental_gate_visits", "full_gate_visits",
]
NUM_FIELDS = ["repaired_fraction", "loop_seconds"]


def fail(msg):
    print(f"validate_bench_timing: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_bench_timing.py <path>")
    try:
        with open(sys.argv[1]) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {sys.argv[1]}: {e}")

    if data.get("schema") != "kms-bench-timing-v2":
        fail(f"bad schema: {data.get('schema')!r}")
    circuits = data.get("circuits")
    if not isinstance(circuits, list) or not circuits:
        fail("'circuits' is not a non-empty list")

    sum_inc = sum_full = 0
    any_iterations = False
    for row in circuits:
        if not isinstance(row, dict):
            fail("circuit row is not an object")
        name = row.get("name")
        if not isinstance(name, str) or not name:
            fail("circuit row missing 'name'")
        for f in INT_FIELDS:
            if not isinstance(row.get(f), int) or row[f] < 0:
                fail(f"circuit '{name}': field '{f}' is not a "
                     "non-negative integer")
        for f in NUM_FIELDS:
            if not isinstance(row.get(f), (int, float)) or row[f] < 0:
                fail(f"circuit '{name}': field '{f}' is not a "
                     "non-negative number")
        inc, full = row["incremental_gate_visits"], row["full_gate_visits"]
        if inc > full:
            fail(f"circuit '{name}': incremental visits ({inc}) exceed "
                 f"the full-recompute visits ({full})")
        want_frac = inc / full if full else 0.0
        if abs(row["repaired_fraction"] - want_frac) > 1e-4:
            fail(f"circuit '{name}': repaired_fraction "
                 f"{row['repaired_fraction']} inconsistent with "
                 f"{inc}/{full}")
        sum_inc += inc
        sum_full += full
        any_iterations |= row["iterations"] >= 1

    if not any_iterations:
        fail("no circuit ran any loop iteration — the comparison is "
             "vacuous")
    if sum_inc >= sum_full:
        fail(f"suite-wide incremental visits ({sum_inc}) are not strictly "
             f"fewer than full-recompute visits ({sum_full})")

    frac = sum_inc / sum_full
    print(f"validate_bench_timing: OK ({len(circuits)} circuits, "
          f"suite repair fraction {frac:.3f})")


if __name__ == "__main__":
    main()
