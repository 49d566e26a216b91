#!/usr/bin/env bash
# Kill-and-resume smoke: run the full tiny-scale evaluation with
# checkpointing on, SIGKILL it at roughly half the uninterrupted run's wall
# time, resume from the checkpoint file, and require the resumed output to
# be byte-identical to the uninterrupted run.
#
# SIGKILL — not SIGINT — on purpose: the graceful path gets to flush, this
# one does not, so the test exercises the atomic-save guarantee (the file on
# disk is a consistent checkpoint at every instant) plus watermark replay
# verification and the completed-experiment journal on resume.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/fbsim" ./cmd/fbsim
args=(-exp all -scale tiny -seed 2)

echo "== uninterrupted golden run"
full_start=$(date +%s%N)
"$workdir/fbsim" "${args[@]}" > "$workdir/full.txt"
full_ns=$(( $(date +%s%N) - full_start ))
half_s=$(awk "BEGIN{printf \"%.2f\", $full_ns/2e9}")

echo "== checkpointed run, SIGKILL after ${half_s}s (~50%)"
"$workdir/fbsim" "${args[@]}" -checkpoint "$workdir/run.ckpt" \
  > "$workdir/part.txt" 2>/dev/null &
pid=$!
sleep "$half_s"
kill -KILL "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

if [ ! -s "$workdir/run.ckpt" ]; then
  echo "FAIL: no checkpoint file survived the SIGKILL" >&2
  exit 1
fi

echo "== resume from the checkpoint"
"$workdir/fbsim" "${args[@]}" -resume "$workdir/run.ckpt" > "$workdir/resumed.txt"

if ! cmp -s "$workdir/full.txt" "$workdir/resumed.txt"; then
  echo "FAIL: resumed output differs from the uninterrupted run" >&2
  diff "$workdir/full.txt" "$workdir/resumed.txt" >&2 || true
  exit 1
fi
echo "OK: kill-and-resume output byte-identical to the uninterrupted run"

# Same contract for the production experiment on its own: the mix's lazy
# beacon chains and per-shard sketch merges must replay to the same bytes
# across a mid-flight SIGKILL.
pargs=(-exp production -scale tiny -flows 300 -seed 2)

echo "== production: uninterrupted golden run"
p_start=$(date +%s%N)
"$workdir/fbsim" "${pargs[@]}" > "$workdir/pfull.txt"
p_ns=$(( $(date +%s%N) - p_start ))
p_half=$(awk "BEGIN{printf \"%.2f\", $p_ns/2e9}")

echo "== production: checkpointed run, SIGKILL after ${p_half}s (~50%)"
"$workdir/fbsim" "${pargs[@]}" -checkpoint "$workdir/prod.ckpt" \
  > "$workdir/ppart.txt" 2>/dev/null &
pid=$!
sleep "$p_half"
kill -KILL "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

if [ ! -s "$workdir/prod.ckpt" ]; then
  echo "FAIL: no production checkpoint file survived the SIGKILL" >&2
  exit 1
fi

echo "== production: resume from the checkpoint"
"$workdir/fbsim" "${pargs[@]}" -resume "$workdir/prod.ckpt" > "$workdir/presumed.txt"

if ! cmp -s "$workdir/pfull.txt" "$workdir/presumed.txt"; then
  echo "FAIL: resumed production output differs from the uninterrupted run" >&2
  diff "$workdir/pfull.txt" "$workdir/presumed.txt" >&2 || true
  exit 1
fi
echo "OK: production kill-and-resume output byte-identical to the uninterrupted run"

# Version skew: a checkpoint written for an older simulation state (before
# the port hand-off its watermarks count more events) must be refused by the
# envelope check — one line, before any point replays — not die mid-replay
# in VerifyRestore. The envelope's state field precedes the payload, so the
# first match on the line is the envelope's.
echo "== version skew: the production checkpoint relabelled fb-state-1 must be refused up front"
sed -E 's/"state":"fb-state-[0-9]+"/"state":"fb-state-1"/' "$workdir/prod.ckpt" > "$workdir/old.ckpt"
if cmp -s "$workdir/prod.ckpt" "$workdir/old.ckpt"; then
  echo "FAIL: could not relabel the checkpoint envelope (already fb-state-1?)" >&2
  exit 1
fi
if "$workdir/fbsim" "${pargs[@]}" -resume "$workdir/old.ckpt" > "$workdir/skew.out" 2> "$workdir/skew.err"; then
  echo "FAIL: -resume accepted a checkpoint written for fb-state-1" >&2
  exit 1
fi
if [ "$(wc -l < "$workdir/skew.err")" -ne 1 ] || ! grep -q 'was written for simulation state "fb-state-1"' "$workdir/skew.err" || [ -s "$workdir/skew.out" ]; then
  echo "FAIL: version-skew refusal is not the one version line:" >&2
  cat "$workdir/skew.out" "$workdir/skew.err" >&2
  exit 1
fi
echo "OK: fb-state-1 checkpoint refused: $(cat "$workdir/skew.err")"
