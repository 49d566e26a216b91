package experiments

import (
	"math"
	"testing"

	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
)

// Differential tests: every competitor scheme has a degenerate configuration
// that collapses onto one of the paper's baselines, and the collapse must be
// bit-identical, not merely statistically similar. Each test runs the same
// all-to-all point twice — once with the baseline scheme, once with the
// degenerate competitor injected through allToAllSpec.setupFn — and compares
// full per-flow fingerprints.

func diffSpec(scheme Scheme) allToAllSpec {
	return allToAllSpec{scheme: scheme, load: 0.6, flows: 150}
}

func diffOpts() Options {
	return Options{Seed: 11, Scale: ScaleTiny}
}

// Flowlet switching with an infinite idle gap never opens a second flowlet,
// so every flow keeps its base hash draw forever: exactly per-flow ECMP.
// This also pins that the flowlet table machinery itself (lookups, LRU
// touches, the disabled expiry) is invisible to packet forwarding.
func TestDifferentialFlowletInfiniteGapIsECMP(t *testing.T) {
	o := diffOpts()
	want := flowFingerprint(o.runAllToAll(diffSpec(ECMP)))

	spec := diffSpec(Flowlet)
	spec.setupFn = func(rng *sim.RNG) schemeSetup {
		return schemeSetup{cfg: tcp.DefaultConfig(), sel: &routing.Flowlet{Gap: routing.InfiniteGap}}
	}
	got := flowFingerprint(o.runAllToAll(spec))
	if got != want {
		t.Errorf("Flowlet(Gap=∞) diverges from ECMP:\n%s", firstDiff(want, got))
	}

	// Control: the default finite gap must NOT collapse to ECMP on the same
	// workload, or the degenerate test above proves nothing.
	if ctrl := flowFingerprint(o.runAllToAll(diffSpec(Flowlet))); ctrl == want {
		t.Error("control failed: Flowlet with the default gap is indistinguishable from ECMP")
	}
}

// DiffFlow with a zero short-flow cutoff marks no packet for spraying, so
// its selector always takes the hash branch: exactly ECMP.
func TestDifferentialDiffFlowZeroCutoffIsECMP(t *testing.T) {
	o := diffOpts()
	want := flowFingerprint(o.runAllToAll(diffSpec(ECMP)))

	spec := diffSpec(DiffFlow)
	spec.setupFn = func(rng *sim.RNG) schemeSetup {
		cfg := tcp.DefaultConfig()
		cfg.SprayShortCutoff = 0
		return schemeSetup{cfg: cfg, sel: &routing.DiffFlow{RNG: rng.Fork("rps")}}
	}
	got := flowFingerprint(o.runAllToAll(spec))
	if got != want {
		t.Errorf("DiffFlow(cutoff=0) diverges from ECMP:\n%s", firstDiff(want, got))
	}
}

// DiffFlow with an unbounded cutoff marks every packet for spraying, and its
// selector forks the RNG under the same label RPS uses, so the per-packet
// draw sequence — and therefore every queue, mark, and completion — must be
// bit-identical to RPS.
func TestDifferentialDiffFlowUnboundedCutoffIsRPS(t *testing.T) {
	o := diffOpts()
	want := flowFingerprint(o.runAllToAll(diffSpec(RPS)))

	spec := diffSpec(DiffFlow)
	spec.setupFn = func(rng *sim.RNG) schemeSetup {
		cfg := tcp.DefaultConfig()
		cfg.SprayShortCutoff = math.MaxInt64
		return schemeSetup{cfg: cfg, sel: &routing.DiffFlow{RNG: rng.Fork("rps")}}
	}
	got := flowFingerprint(o.runAllToAll(spec))
	if got != want {
		t.Errorf("DiffFlow(cutoff=∞) diverges from RPS:\n%s", firstDiff(want, got))
	}

	// Control: the default cutoff (sprayed shorts, pinned longs) must match
	// neither baseline.
	ctrl := flowFingerprint(o.runAllToAll(diffSpec(DiffFlow)))
	if ctrl == want {
		t.Error("control failed: default-cutoff DiffFlow is indistinguishable from RPS")
	}
	if ecmp := flowFingerprint(o.runAllToAll(diffSpec(ECMP))); ctrl == ecmp {
		t.Error("control failed: default-cutoff DiffFlow is indistinguishable from ECMP")
	}
}

// singlePathFCT runs one small inter-ToR flow on a loss-free testbed with a
// single spine — one path, so replication cannot find a better route — and
// returns the flow.
func singlePathFCT(t *testing.T, replicate bool) *tcp.Flow {
	t.Helper()
	eng := sim.NewEngine()
	p := topo.SmallTestbed()
	p.AggsPerPod = 1
	ft := topo.NewFatTree(eng, p)
	ft.SetSelector(routing.ECMP{})

	cfg := tcp.DefaultConfig()
	if replicate {
		cfg.Replicate = &tcp.ReplicateConfig{Cutoff: RepFlowCutoff}
	}
	src := ft.Hosts[p.TorHosts(0, 0)[0]]
	dst := ft.Hosts[p.TorHosts(0, 1)[0]]
	f := tcp.StartFlow(eng, cfg, 1, src, dst, 20_000)
	Options{}.drain(eng, sim.Second, func() bool { return f.Done() }, func(sim.Time) {})
	if !f.Done() {
		t.Fatalf("flow (replicate=%v) incomplete", replicate)
	}
	if f.Sender().Timeouts != 0 {
		t.Fatalf("flow (replicate=%v) took %d timeouts on a loss-free fabric", replicate, f.Sender().Timeouts)
	}
	return f
}

// RepFlow's worst case is a topology with no path diversity: the replica
// competes with the primary for the only path and buys nothing. The paper's
// claim is that replication is then nearly free for short flows — the winner
// finishes within one RTT of what the unreplicated flow achieves.
func TestDifferentialRepFlowSinglePathWithinOneRTT(t *testing.T) {
	solo := singlePathFCT(t, false).FCT()
	rep := singlePathFCT(t, true).FCT()

	// One base RTT of the fabric: host NIC delays, three store-and-forward
	// switch pipeline delays, and four hops' serialization of one MTU, both
	// ways. Generous but principled — well under the multi-RTT FCT itself.
	p := topo.SmallTestbed()
	ser := sim.Time(1500 * 8 * int64(sim.Second) / p.LinkRateBps)
	rtt := 2 * (2*p.HostDelay + 3*p.SwitchDelay + 4*(p.LinkDelay+ser))

	diff := rep - solo
	if diff < 0 {
		diff = -diff
	}
	if diff > rtt {
		t.Errorf("RepFlow FCT %v vs unreplicated %v: differs by %v, more than one RTT (%v)",
			rep, solo, diff, rtt)
	}
}
