#!/usr/bin/env bash
# Reach audit: every shipped internal/ function is executed by some binary, or
# ci/reach-allow.txt says why not.
#
# Builds the three binaries (fbsim, fbtopo, bench) and the quickstart example
# with coverage over every package, drives them through the runs a user
# makes — the tiny suite on both engines, single experiments across
# engines, scales up to mega, shards, seeds, checkpoint and resume, the path
# listing, the example, every benchmark workload traced and untraced — into
# one GOCOVERDIR, and compares the non-test internal/ functions left at 0%
# with ci/reach-allow.txt ("<file> <function> <reason>" a line).
#
# A gate: a function at 0% is reached by tests at most, which is right for an
# error path or a debug hook and wrong for a feature, so it needs a reason on
# the list or a deletion. Exits non-zero on a 0% function the list does not
# carry, on a listed function that is gone or is now reached, on a line with
# no reason, and when one of the runs fails (its coverage would be missing).
# About eight minutes on two cores; `make reach-audit`, weekly in CI.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export GOCOVERDIR="$work/cov"
mkdir -p "$GOCOVERDIR" "$work/bin"

for pkg in ./cmd/fbsim ./cmd/fbtopo ./bench ./examples/*/; do
  go build -cover -coverpkg=./... -o "$work/bin/$(basename "$pkg")" "$pkg"
done

failed=0
run() { # run <binary> [args...]: output dropped, a failing run named
  local bin=$1
  shift
  echo "== $bin $*" >&2
  if ! "$work/bin/$bin" "$@" >/dev/null 2>"$work/err"; then
    echo "   exited non-zero: $(tail -n 1 "$work/err")" >&2
    failed=$((failed + 1))
  fi
}

run fbsim -exp all -scale tiny
run fbsim -exp all -scale tiny -engine fluid -v

printf '300 0\n600 0.5\n1200 1.0\n' >"$work/mice.cdf"
run fbsim -list
run fbsim -list-schemes
run fbsim -list-faults
run fbsim -exp alltoall -scale tiny -flows 60 -shards 4
run fbsim -exp testbed -scale tiny -flows 40 -shards 2
run fbsim -exp alltoall -scale tiny -flows 60 -seeds 2 -parallel 1
run fbsim -exp alltoall -scale small -flows 200 -engine fluid -v
run fbsim -exp table1 -scale paper -engine fluid
run fbsim -exp production -scale tiny -flows 300 -shards 2 -workload datamining
run fbsim -exp production -scale tiny -flows 300 -schemes ECMP -cdf "$work/mice.cdf" -load 0.1
run fbsim -exp production -scale hyper -engine fluid -flows 3000 -solver-shards 2
run fbsim -exp production -scale mega -engine fluid -schemes ECMP -load 0.2 -flows 5000
run fbsim -exp faults -scale tiny -faults cut,gray1 -json
run fbsim -exp fidelity -scale tiny -watchdog 5m
run fbsim -exp production -scale tiny -flows 300 -checkpoint "$work/run.ckpt"
run fbsim -exp production -scale tiny -flows 300 -resume "$work/run.ckpt"

# An interrupted run: SIGINT mid-flight (save, exit 130), then a resume that
# reruns the experiment from the start. If the box is fast enough that the run
# finishes first, the resume is served from the journal instead.
echo "== fbsim -exp alltoall -scale tiny -checkpoint ..., SIGINT after 2 s" >&2
"$work/bin/fbsim" -exp alltoall -scale tiny -checkpoint "$work/int.ckpt" >/dev/null 2>&1 &
pid=$!
sleep 2
kill -INT "$pid" 2>/dev/null || true
wait "$pid" || true
run fbsim -exp alltoall -scale tiny -resume "$work/int.ckpt"

run fbtopo -scale tiny
run fbtopo -scale small -src 0 -dst 40

run quickstart

for w in packet-a2a packet-mix fluid-a2a fluid-mix suite-tiny; do
  for trace in 0 1; do
    run bench -workload "$w" -seconds 2 -trace "$trace" -out "$work/bench_out"
  done
done

go tool covdata textfmt -i="$GOCOVERDIR" -o "$work/cover.out"
go tool cover -func="$work/cover.out" |
  awk '$1 ~ /\/internal\// && $NF == "0.0%" {
         sub(/^flowbender\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
  sort >"$work/unreached"
# Both sides keep duplicates (two String methods in one file are two lines),
# and comm pairs them off one for one.
awk '!/^#/ && NF { if (NF < 3) { print "reach-allow.txt: no reason given: " $0 > "/dev/stderr"; bad = 1 }
                   print $1, $2 }
     END { exit bad }' ci/reach-allow.txt | sort >"$work/allowed" || failed=$((failed + 1))

echo
echo "$(wc -l <"$work/unreached") non-test internal/ function(s) at 0%, $(wc -l <"$work/allowed") on ci/reach-allow.txt"
unlisted=$(comm -23 "$work/unreached" "$work/allowed")
stale=$(comm -13 "$work/unreached" "$work/allowed")
if [ -n "$unlisted" ]; then
  echo "no run above executes these and ci/reach-allow.txt gives no reason — delete them, or list them with one:"
  sed 's/^/  /' <<<"$unlisted"
fi
if [ -n "$stale" ]; then
  echo "listed in ci/reach-allow.txt but gone or now reached — drop the lines:"
  sed 's/^/  /' <<<"$stale"
fi
if [ "$failed" -gt 0 ]; then
  echo "$failed run(s) or check(s) above failed" >&2
fi
[ -z "$unlisted" ] && [ -z "$stale" ] && [ "$failed" -eq 0 ]
