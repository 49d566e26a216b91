GO ?= go

.PHONY: all build vet test test-short test-race test-simdebug reach-audit bench benchmark benchmark-compare benchmark-pair results results-paper examples clean

all: build vet test

build:
	$(GO) build ./...

# go vet, then gofmt as a gate: a file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l is not empty:" >&2; echo "$$out" >&2; exit 1; }

test:
	$(GO) test ./...

# Fast suite for CI: skips the heavier experiment smoke tests.
test-short:
	$(GO) test -short ./...

# Race-detector pass over the parallel experiment runner and everything else,
# plus the sharded-engine bit-identity proofs (serial vs sharded at several
# shard counts, randomized-topology model check, runpool token sharing) and
# the arena-history test (points on fabrics other points left, four workers).
# ci/gotest-run.sh fails a name selection that matches no test.
test-race:
	$(GO) test -race -short ./...
	./ci/gotest-run.sh 'TestParallelDeterminism' -race ./internal/experiments/
	./ci/gotest-run.sh 'TestShard|TestByteIdentitySharded' -race ./internal/experiments/
	./ci/gotest-run.sh 'TestWarmPacketPointMatchesCold' -race ./internal/experiments/

# The simulator suites again with use-after-free tripwires armed: recycled
# events/packets are poisoned and any stale access panics with generation
# diagnostics; an embedded event filed twice, or recycled or reset while
# filed, panics. Run this first when debugging a determinism break.
test-simdebug:
	$(GO) test -tags simdebug ./internal/...
	./ci/gotest-run.sh 'TestSimdebugEmbeddedTripwire|TestSimdebugTripwires' -tags simdebug ./internal/sim/
	./ci/gotest-run.sh 'TestSimdebugEmbeddedEventTripwires|TestSimdebugPacketTripwires|TestSimdebugHandOffTripwires' -tags simdebug ./internal/netsim/

# Which shipped internal/ functions does no binary ever execute? Builds every
# binary and example with coverage, drives the runs a user makes into one
# GOCOVERDIR and fails unless the functions left at 0% are exactly the ones
# ci/reach-allow.txt gives a reason for (ci/reachaudit.sh; about eight
# minutes, so CI runs it weekly and on request, not on every push).
reach-audit:
	./ci/reachaudit.sh

# The packages' own micro-benchmarks (go test -bench), for interactive work on
# one hot path. The measurement a claim rests on is `make benchmark-pair`.
bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark declared in BENCHMARK.json (bench/README.md): one
# record per workload on stdout, end-to-end metrics with output checks. Keep
# the records (`make benchmark > new.jsonl`) to compare two commits.
benchmark:
	$(GO) run ./bench -all

# Verdict per workload and metric between two recorded runs; exits nonzero
# on a regression beyond a metric's bound. make benchmark-compare OLD=old.jsonl NEW=new.jsonl
benchmark-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make benchmark-compare OLD=old.jsonl NEW=new.jsonl" >&2; exit 2; }
	$(GO) run ./bench -compare $(OLD) $(NEW)

# The measurement a perf change's claim rests on: ./bench built at PARENT (in
# a temporary git worktree) and in the working tree, ten alternating pairs per
# workload, then benchmark-compare over the two record files (ci/benchpair.sh
# documents PAIRS, RUN_SECONDS and OUT). make benchmark-pair PARENT=HEAD~1 [WORKLOADS="fluid-a2a fluid-mix"]
benchmark-pair:
	@test -n "$(PARENT)" || { echo "usage: make benchmark-pair PARENT=<ref> [WORKLOADS=\"...\"]" >&2; exit 2; }
	./ci/benchpair.sh $(PARENT) $(WORKLOADS)

# Regenerate the paper's tables/figures at the 64-server scale. Simulation
# points fan out across all cores (-parallel 0 = GOMAXPROCS); output is
# byte-identical to a sequential run. ~15 min on one core, ~15/N on N.
results:
	$(GO) run ./cmd/fbsim -exp all -scale small | tee results_small.txt

# The full 128-server instances of Table 1 and Figures 3/4 (~1 h on one
# core; scales down with core count).
results-paper:
	$(GO) run ./cmd/fbsim -exp table1 -scale paper | tee results_paper_table1.txt
	$(GO) run ./cmd/fbsim -exp alltoall -scale paper | tee results_paper_alltoall.txt

examples:
	$(GO) run ./examples/quickstart

clean:
	$(GO) clean ./...
