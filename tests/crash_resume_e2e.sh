#!/usr/bin/env bash
# Real-process crash/resume end-to-end test (ctest label: crash).
#
# Part 1 — deterministic kill points: KMS_CRASH_AT=<n> makes kmscli die
# with exit 137 (std::_Exit, no unwinding — a faithful SIGKILL stand-in)
# at the n-th durability boundary. For every n until a run completes:
# crash, resume with `kmscli irr --resume`, and require the output BLIF
# and journal to be byte-identical to an uninterrupted reference run,
# with artifacts that kmsproof accepts as one logical run. Crashes that
# predate the first committed WAL record have nothing to resume: the
# CLI must refuse with a precise error and a fresh restart must match.
#
# Part 2 — a genuine `kill -9` against a larger input, then resume. The
# kill races the run; when the run wins, the completed output must still
# match (the fallback keeps the test deterministic on any machine).
set -u

KMSCLI="$1"
KMSPROOF="$2"
EXAMPLES="$3"

WORK="${TMPDIR:-/tmp}/crash_resume_e2e.$$"
rm -rf "$WORK"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

IN="$EXAMPLES/statred.blif"
REF_DIR="$WORK/ref"
REF_OUT="$WORK/ref.blif"
"$KMSCLI" irr "$IN" -o "$REF_OUT" --emit-proof "$REF_DIR" \
  --checkpoint-every 1 >/dev/null 2>&1 || fail "reference run failed"
"$KMSPROOF" "$REF_DIR" >/dev/null 2>&1 \
  || fail "reference artifacts do not verify"

# ---- Part 1: crash at every deterministic kill point ----------------
n=1
while :; do
  DIR="$WORK/c$n"
  OUT="$WORK/out$n.blif"
  rm -rf "$DIR"
  KMS_CRASH_AT=$n "$KMSCLI" irr "$IN" -o "$OUT" --emit-proof "$DIR" \
    --checkpoint-every 1 >/dev/null 2>&1
  code=$?
  if [ "$code" -eq 0 ]; then
    cmp -s "$OUT" "$REF_OUT" || fail "uncrashed run at n=$n differs"
    break
  fi
  [ "$code" -eq 137 ] || fail "crash at n=$n exited $code, expected 137"
  if "$KMSCLI" irr --resume "$DIR" -o "$OUT" >/dev/null 2>"$WORK/err$n"; then
    cmp -s "$OUT" "$REF_OUT" || fail "resume after crash at n=$n differs"
    cmp -s "$DIR/journal.txt" "$REF_DIR/journal.txt" \
      || fail "journal after crash at n=$n differs"
    # The audit must accept the resumed session as one logical run.
    "$KMSPROOF" "$DIR" >/dev/null 2>&1 \
      || fail "artifacts after crash at n=$n rejected"
  elif [ -f "$DIR/journal.txt" ]; then
    # The kill landed after the final record was durable: the session is
    # complete; resume must say so precisely and the finalized artifacts
    # must already stand on their own.
    grep -q "nothing to resume" "$WORK/err$n" \
      || fail "wrong refusal for completed session at n=$n: $(cat "$WORK/err$n")"
    cmp -s "$DIR/output.blif" "$REF_OUT" \
      || fail "completed-session output at n=$n differs"
    cmp -s "$DIR/journal.txt" "$REF_DIR/journal.txt" \
      || fail "completed-session journal at n=$n differs"
    "$KMSPROOF" "$DIR" >/dev/null 2>&1 \
      || fail "completed-session artifacts at n=$n rejected"
  else
    # Refusal with no journal is only legitimate before the first
    # committed record, and must come with kmsproof calling a logged
    # directory a crashed session rather than a forgery.
    if [ -f "$DIR/wal.log" ]; then
      "$KMSPROOF" "$DIR" 2>&1 | grep -q "crashed session" \
        || fail "kmsproof did not flag the crashed session at n=$n"
    fi
    rm -rf "$DIR"
    "$KMSCLI" irr "$IN" -o "$OUT" --emit-proof "$DIR" \
      --checkpoint-every 1 >/dev/null 2>&1 \
      || fail "restart after crash at n=$n failed"
    cmp -s "$OUT" "$REF_OUT" || fail "restart after crash at n=$n differs"
  fi
  n=$((n + 1))
  [ "$n" -le 500 ] || fail "kill-point sweep did not terminate"
done
echo "deterministic sweep: $n crash schedules checked"

# ---- Part 2: genuine SIGKILL against a larger redundant circuit -----
# Forty statred-style cones (y_i = a_i AND (a_i AND b_i)): each redundant
# branch is removed one pass at a time, so the run is long enough for the
# kill to land mid-flight on most machines.
BIG="$WORK/big.blif"
{
  echo ".model bigred"
  ins=""
  outs=""
  for i in $(seq 0 39); do
    ins="$ins a$i b$i"
    outs="$outs y$i"
  done
  echo ".inputs$ins"
  echo ".outputs$outs"
  for i in $(seq 0 39); do
    printf '.names a%s b%s x%s\n11 1\n' "$i" "$i" "$i"
    printf '.names a%s x%s y%s\n11 1\n' "$i" "$i" "$i"
  done
  echo ".end"
} > "$BIG"

BIG_REF_DIR="$WORK/bigref"
BIG_REF_OUT="$WORK/bigref.blif"
"$KMSCLI" irr "$BIG" -o "$BIG_REF_OUT" --emit-proof "$BIG_REF_DIR" \
  --checkpoint-every 1 >/dev/null 2>&1 || fail "big reference run failed"

DIR="$WORK/sigkill"
OUT="$WORK/sigkill.blif"
killed=0
resumed=0
for attempt in 1 2 3 4 5; do
  rm -rf "$DIR"
  "$KMSCLI" irr "$BIG" -o "$OUT" --emit-proof "$DIR" \
    --checkpoint-every 1 >/dev/null 2>&1 &
  pid=$!
  sleep 0.0$attempt
  if kill -9 "$pid" 2>/dev/null; then killed=$((killed + 1)); fi
  wait "$pid" 2>/dev/null
  if [ -f "$DIR/output.blif" ]; then
    # The run finalized before the kill landed (the -o copy may still
    # have been cut off, so judge the durable artifact instead).
    # output.blif is the last artifact finalize writes: a kill between
    # journal.txt and output.blif leaves a crashed session to resume.
    cmp -s "$DIR/output.blif" "$BIG_REF_OUT" \
      || fail "completed SIGKILL-race run differs"
    continue
  fi
  if "$KMSCLI" irr --resume "$DIR" -o "$OUT" >/dev/null 2>&1; then
    resumed=$((resumed + 1))
    cmp -s "$OUT" "$BIG_REF_OUT" || fail "resume after SIGKILL differs"
    cmp -s "$DIR/journal.txt" "$BIG_REF_DIR/journal.txt" \
      || fail "journal after SIGKILL differs"
    "$KMSPROOF" "$DIR" >/dev/null 2>&1 \
      || fail "artifacts after SIGKILL rejected"
  fi
  # A refusal means the kill predated the first committed record —
  # nothing on disk to check, which is itself the correct behaviour.
done
echo "SIGKILL e2e: ok ($killed kills landed, $resumed resumes verified)"
exit 0
