#!/usr/bin/env python3
"""Validate a BENCH_atpg.json file against the kms-bench-atpg-v3 schema.

Usage: validate_bench_atpg.py <path>

Checks (stdlib only, no dependencies):
  * the file parses as JSON and carries schema "kms-bench-atpg-v3";
  * "circuits" is a non-empty list;
  * every circuit has name/gates/faults, a seed and an incremental
    engine record with all required counter fields of the right type,
    removed_match and sat_query_ratio;
  * internal consistency: removed_match reflects the engine records,
    the incremental engine issues strictly fewer SAT queries than the
    seed engine, and non-aborted runs on the same circuit removed the
    same redundancies bit-identically (digest equality across both
    engines).

Exit code 0 on success; 1 with a diagnostic on any violation (including
an empty or malformed file — the CI bench-smoke stage depends on that).
"""
import json
import sys

ENGINE_INT_FIELDS = [
    "removed", "passes", "sat_queries", "structural_shortcuts",
    "sim_dropped", "witness_dropped", "cache_hits", "cache_invalidated",
    "unknown_queries", "jobs", "sat_conflicts", "max_cone_gates",
]
ENGINE_NUM_FIELDS = ["cone_gates_avg", "seconds"]


def fail(msg):
    print(f"validate_bench_atpg: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_engine(circuit, key, engine):
    where = f"circuit '{circuit}' engine '{key}'"
    if not isinstance(engine, dict):
        fail(f"{where}: not an object")
    for f in ENGINE_INT_FIELDS:
        if f not in engine:
            fail(f"{where}: missing field '{f}'")
        if not isinstance(engine[f], int) or engine[f] < 0:
            fail(f"{where}: field '{f}' is not a non-negative integer")
    for f in ENGINE_NUM_FIELDS:
        if f not in engine:
            fail(f"{where}: missing field '{f}'")
        if not isinstance(engine[f], (int, float)) or engine[f] < 0:
            fail(f"{where}: field '{f}' is not a non-negative number")
    if not isinstance(engine.get("aborted"), bool):
        fail(f"{where}: field 'aborted' is not a boolean")
    if engine["jobs"] < 1:
        fail(f"{where}: field 'jobs' must be >= 1 (0 is resolved to the "
             "hardware concurrency before an engine runs)")
    digest = engine.get("digest")
    if not isinstance(digest, str) or len(digest) != 16 or \
            any(ch not in "0123456789abcdef" for ch in digest):
        fail(f"{where}: field 'digest' is not a 16-hex-digit string")


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_bench_atpg.py <path>")
    try:
        with open(sys.argv[1], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read/parse {sys.argv[1]}: {e}")
    if not isinstance(doc, dict):
        fail("top level is not an object")
    if doc.get("schema") != "kms-bench-atpg-v3":
        fail(f"unexpected schema {doc.get('schema')!r}")
    circuits = doc.get("circuits")
    if not isinstance(circuits, list) or not circuits:
        fail("'circuits' missing, not a list, or empty")
    for c in circuits:
        if not isinstance(c, dict):
            fail("circuit entry is not an object")
        name = c.get("name")
        if not isinstance(name, str) or not name:
            fail("circuit entry without a name")
        for f in ("gates", "faults"):
            if not isinstance(c.get(f), int) or c[f] < 0:
                fail(f"circuit '{name}': field '{f}' is not a "
                     "non-negative integer")
        engines = c.get("engines")
        if not isinstance(engines, dict):
            fail(f"circuit '{name}': 'engines' is not an object")
        for key in ("seed", "incremental"):
            if key not in engines:
                fail(f"circuit '{name}': missing engine '{key}'")
            check_engine(name, key, engines[key])
        seed, inc = engines["seed"], engines["incremental"]
        match = c.get("removed_match")
        if not isinstance(match, bool):
            fail(f"circuit '{name}': 'removed_match' is not a boolean")
        if match != (seed["removed"] == inc["removed"]
                     and seed["digest"] == inc["digest"]):
            fail(f"circuit '{name}': removed_match contradicts the "
                 "engine records")
        if not (seed["aborted"] or inc["aborted"]):
            if not match:
                fail(f"circuit '{name}': engines diverged "
                     f"(removed {seed['removed']}/{inc['removed']}, "
                     f"digest {seed['digest']}/{inc['digest']})")
            if seed["sat_queries"] > 0 and \
                    inc["sat_queries"] >= seed["sat_queries"]:
                fail(f"circuit '{name}': incremental engine did not issue "
                     f"strictly fewer SAT queries ({inc['sat_queries']} vs "
                     f"seed {seed['sat_queries']})")
        ratio = c.get("sat_query_ratio")
        if not isinstance(ratio, (int, float)) or ratio < 0:
            fail(f"circuit '{name}': 'sat_query_ratio' is not a "
                 "non-negative number")
    print(f"validate_bench_atpg: OK ({len(circuits)} circuits)")


if __name__ == "__main__":
    main()
