#!/usr/bin/env bash
# Paired benchmark of a parent commit against the working tree.
#
#   ci/benchpair.sh <parent-ref> [workload...]
#
# Builds ./bench at <parent-ref> (in a temporary `git worktree`, removed on
# exit) and in the working tree (HEAD plus whatever is uncommitted), runs
# PAIRS alternating pairs of the two binaries per workload — which side goes
# first alternates, so a host burst cannot favour one side — each binary from
# its own checkout, so each reads its own BENCHMARK.json, and ends in
# `go run ./bench -compare`. This is the measurement bench/README.md asks of
# a change that claims a gain; nothing under bench/ is involved beyond being
# built.
#
#   PAIRS=10        pairs per workload (ten is what a claim needs)
#   RUN_SECONDS=18  measuring time of each run (default: BENCHMARK.json's run_seconds)
#   OUT=dir         where old.jsonl, new.jsonl and the span scratch go
#                   (default: a fresh directory under ${TMPDIR:-/tmp}, printed)
#
# Records are appended run by run, so an interrupted session still leaves
# two comparable files. Exits nonzero on a regression beyond a metric's bound
# (-compare's status) and, after the -compare table, when any workload's
# result_digest differs between the two sides: a change that moves the output
# has no speed to compare.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$PWD

if [ $# -lt 1 ]; then
  echo "usage: ci/benchpair.sh <parent-ref> [workload...]" >&2
  exit 2
fi
parent=$1
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(packet-a2a packet-mix fluid-a2a fluid-mix suite-tiny)
fi
pairs=${PAIRS:-10}
seconds=${RUN_SECONDS:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)}
out=${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")}
mkdir -p "$out"
out=$(cd "$out" && pwd)

tree=$(mktemp -d "${TMPDIR:-/tmp}/benchpair-parent.XXXXXX")
cleanup() {
  git worktree remove --force "$tree" >/dev/null 2>&1 || true
  rm -rf "$tree"
}
trap cleanup EXIT
git worktree add --detach "$tree" "$parent" >/dev/null
(cd "$tree" && go build -o "$out/bench.old" ./bench)
go build -o "$out/bench.new" ./bench
echo "benchpair: $(git rev-parse --short "$parent") against the working tree, $pairs pairs of ${seconds}s per workload, records in $out" >&2

# one <old|new> <workload>: one untraced run, appended to that side's records.
one() {
  local side=$1 w=$2 dir=$repo printed digest
  [ "$side" = old ] && dir=$tree
  printed=$(cd "$dir" && "$out/bench.$side" -workload "$w" -seconds "$seconds" -trace 0 -out "$out/scratch.$side")
  digest=$(sed -n 's/^result_digest //p' <<< "$printed")
  printf '{"workload":"%s","seed":1,"trace":0,"result_digest":"%s","result":%s}\n' \
    "$w" "$digest" "$(grep '^{' <<< "$printed")" >> "$out/$side.jsonl"
}

: > "$out/old.jsonl"
: > "$out/new.jsonl"
mismatch=0
for w in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
      one old "$w"; one new "$w"
    else
      one new "$w"; one old "$w"
    fi
  done
  if [ "$(grep "\"$w\"" "$out/old.jsonl" | sed 's/.*"result_digest":"\([0-9a-f]*\)".*/\1/' | sort -u)" != \
       "$(grep "\"$w\"" "$out/new.jsonl" | sed 's/.*"result_digest":"\([0-9a-f]*\)".*/\1/' | sort -u)" ]; then
    echo "benchpair: $w: result_digest differs between the two sides" >&2
    mismatch=1
  fi
done

status=0
go run ./bench -compare "$out/old.jsonl" "$out/new.jsonl" || status=$?
if ((mismatch)); then
  echo "benchpair: failing: result_digest differed between the two sides (see above)" >&2
  ((status)) || status=1
fi
exit "$status"
