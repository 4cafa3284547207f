#!/bin/sh
# Configure, build and test the "checked" configuration: ASan + UBSan with
# KMS_CHECK_INVARIANTS=ON, so every Network surgery operation self-checks
# and every test runs under the sanitizers. One-line CI entry point:
#
#   tools/check_build.sh [extra ctest args...]
#
# Equivalent to: cmake --preset checked && cmake --build --preset checked
#                && ctest --preset checked
set -eu
cd "$(dirname "$0")/.."
cmake --preset checked
cmake --build --preset checked -j "$(nproc)"
ctest --preset checked -j "$(nproc)" "$@"
# The graceful-degradation property tests are the safety net for every
# resource-limited code path (aborted solves must never license a
# deletion); run them as their own stage so a regression is named in CI
# output even when someone passes a filter in "$@" that skips them.
echo "== fault-injection property tests (checked preset) =="
ctest --preset checked -R "FaultInjection" --output-on-failure

# Temp-file isolation stage: the kmslint and kmscli end-to-end cases each
# run as their own ctest process and write capture/input files under
# $TMPDIR. Run them wide and repeatedly so two cases sharing a path
# shows up as a failure here rather than as a rare flake.
echo "== kmslint/kmscli e2e under ctest -j8, repeated (checked preset) =="
ctest --preset checked -j8 --repeat until-fail:3 -R 'Kmslint|Kmscli' \
  --output-on-failure

# Certificate pipeline stage: run the whole proof surface (DRAT checker,
# journal, session verification, encoder cross-check) under the
# sanitizers, then certify a real run over every example netlist with the
# instrumented binaries: kmscli emits journal+DRAT artifacts and
# self-verifies (--certify), and the independent kmsproof re-audits the
# artifact directory from disk. Any deletion without a verified UNSAT
# certificate fails CI here.
echo "== proof-labelled tests (checked preset) =="
ctest --preset checked -L proof --output-on-failure
echo "== certified pipeline over examples/*.blif (checked preset) =="
BUILD_DIR=build-checked  # pinned by the preset's binaryDir
CERT_DIR=$(mktemp -d)
trap 'rm -rf "$CERT_DIR"' EXIT
for blif in examples/*.blif; do
  name=$(basename "$blif" .blif)
  echo "-- certify: $name"
  "$BUILD_DIR/tools/kmscli" irr "$blif" -o "$CERT_DIR/$name.out.blif" \
    --certify --emit-proof "$CERT_DIR/$name"
  "$BUILD_DIR/tools/kmsproof" "$CERT_DIR/$name"
done
# Reproducibility: certify artifacts hold no wall-clock data and no
# schedule-dependent step. Two --jobs 1 runs must leave byte-identical
# directories (wal.log included), and the journal at --jobs 4 must equal
# the --jobs 1 one. perfbench's csa_8_2 is small enough for the
# sanitizers yet large enough for workers to race.
echo "-- certify reproducibility: csa_8_2"
REPRO_IN=perfbench/inputs/csa_8_2.blif
for run in a b; do
  "$BUILD_DIR/tools/kmscli" irr "$REPRO_IN" -o /dev/null --certify \
    --emit-proof "$CERT_DIR/repro_$run" 2>/dev/null
done
diff -r "$CERT_DIR/repro_a" "$CERT_DIR/repro_b"
"$BUILD_DIR/tools/kmscli" irr "$REPRO_IN" -o /dev/null --certify --jobs 4 \
  --emit-proof "$CERT_DIR/repro_j4" 2>/dev/null
cmp "$CERT_DIR/repro_a/journal.txt" "$CERT_DIR/repro_j4/journal.txt"

# ThreadSanitizer stage: rebuild under -fsanitize=thread and run the
# parallel-labelled tests — the work-stealing removal engine's ticket
# queue, commit protocol, sharded cache, and its jobs={1,2,4,8}
# determinism suite — plus the kmsloop label: the speculative
# sensitization engine's byte-identity suite crossing speculation
# widths with worker counts, whose certificate-capture batches fan out
# over the same pool. TSan and ASan cannot share a build, hence the
# separate preset/tree. Any data race in the worker/coordinator
# handshake fails CI here.
echo "== ThreadSanitizer: parallel-labelled tests (tsan preset) =="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --preset tsan -L parallel --output-on-failure
echo "== ThreadSanitizer: kmsloop-labelled tests (tsan preset) =="
ctest --preset tsan -L kmsloop --output-on-failure

# Crash-safety stage: the `crash` label covers the durability layer —
# WAL framing with torn-tail/bit-flip fuzzing, checkpoint serialization
# round-trips, the kill-point property suite (simulated crash at every
# reachable fsync/commit/checkpoint boundary, resume, bit-identical
# result at jobs 1 and 4), and the real-process e2e that sweeps
# KMS_CRASH_AT over kmscli and lands genuine SIGKILLs, auditing every
# resumed directory with kmsproof. Runs under the sanitizer build so a
# resume-path memory bug fails CI here, named.
echo "== crash-labelled tests (checked preset) =="
ctest --preset checked -L crash --output-on-failure

# Static-analysis engine stage: the `analysis` label covers the
# structural subsystem (levels, dominators, implications, SCOAP, fault
# collapsing, snapshot round-trips) and the property suite that
# cross-checks every SAT-free untestability verdict against the exact
# SAT engine on the example corpus and random circuits. Run it by name
# so a soundness regression in the verdicts kmslint and `kmscli analyze`
# report is called out even when a filter in "$@" skipped it above.
echo "== analysis-labelled tests (checked preset) =="
ctest --preset checked -L analysis --output-on-failure

# Timing stage: the `timing` label covers the STA surface — the
# per-gate kernels, path enumeration, sensitization, and the
# incremental engine's property suite (randomized edit walks asserting
# repaired tables equal a from-scratch recompute under exact double
# equality, KMS end-state bit-identity with the engine on vs off at
# jobs 1 and 4, and the NL022-NL028 tamper tests). Then the loop-cost
# bench runs on the quick circuits and its BENCH_timing.json is
# validated: any end-state digest mismatch between the engines, or an
# incremental repair visiting more gates than the full recompute it
# replaces, fails CI here.
echo "== timing-labelled tests (checked preset) =="
ctest --preset checked -L timing --output-on-failure
echo "== bench smoke: bench_timing --json (checked preset) =="
"$BUILD_DIR/bench/bench_timing" --json "$CERT_DIR/BENCH_timing.json" --quick
python3 tools/validate_bench_timing.py "$CERT_DIR/BENCH_timing.json"

# Bench-smoke stage: run the two-engine ATPG comparison (seed /
# incremental) on the quick circuit and validate the emitted
# BENCH_atpg.json against its kms-bench-atpg-v3 schema. Fails on
# malformed or empty output, on any removed-count or digest mismatch
# between the engines, and on the incremental engine not issuing
# strictly fewer SAT queries than the seed engine.
echo "== bench smoke: bench_atpg --json (checked preset) =="
"$BUILD_DIR/bench/bench_atpg" --json "$CERT_DIR/BENCH_atpg.json" --quick
python3 tools/validate_bench_atpg.py "$CERT_DIR/BENCH_atpg.json"

# KMS-loop speculation smoke: serial vs speculative engine on the quick
# circuit, then validate the kms-bench-kmsloop-v1 JSON. The binary
# itself exits 2 on an end-state digest mismatch or on the speculative
# engine committing more SAT queries than the serial one; the validator
# re-checks both contracts from the emitted file.
echo "== bench smoke: bench_kmsloop --json (checked preset) =="
"$BUILD_DIR/bench/bench_kmsloop" --json "$CERT_DIR/BENCH_kmsloop.json" --quick
python3 tools/validate_bench_kmsloop.py "$CERT_DIR/BENCH_kmsloop.json"

# Serving surface: the JobSpec/JobReport round-trip + run_job suite and
# the kmsd end-to-end tests (real daemon, real socket: kmscli byte-
# identity, cache hits, admission rejections, SIGTERM drain), then a
# load smoke — a few hundred mixed jobs from concurrent clients over
# the socket of a freshly spawned checked-build kmsd. The validator
# fails on schema violations, on any job without a terminal event, and
# on a ZERO cache-hit count: the workload resubmits every job, so a
# silent cache regression cannot pass this stage.
echo "== serve-labelled tests (checked preset) =="
ctest --preset checked -L serve --output-on-failure

echo "== serve smoke: kmsd_load.py --json (checked preset) =="
python3 tools/kmsd_load.py --kmsd "$BUILD_DIR/tools/kmsd" \
  --json "$CERT_DIR/BENCH_serve.json" --quick
python3 tools/validate_bench_serve.py "$CERT_DIR/BENCH_serve.json"

# clang-tidy stage: bug-prone and performance checks over the analysis
# subsystem and the files that consume it (config in .clang-tidy; the
# `tidy` preset exports compile_commands.json). Gated on the tool being
# installed — the stage is advisory infrastructure, not a hard CI
# dependency, so environments without clang-tidy skip it with a notice
# instead of failing.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy: src/analysis + consumers (tidy preset) =="
  cmake --preset tidy
  clang-tidy -p build-tidy --quiet \
    src/analysis/*.cpp src/atpg/redundancy.cpp src/proof/journal.cpp
else
  echo "== clang-tidy not installed; skipping tidy stage =="
fi
