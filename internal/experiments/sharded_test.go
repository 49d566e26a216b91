package experiments

import (
	"fmt"
	"strings"
	"testing"

	"flowbender/internal/core"
	"flowbender/internal/routing"
	"flowbender/internal/runpool"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// firstDiff reports the first line where two fingerprints disagree.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		wl, gl := "<eof>", "<eof>"
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  serial:  %s\n  sharded: %s", i, wl, gl)
		}
	}
	return "no diff"
}

// flowFingerprint renders every per-flow observable the harness collects, so
// two runs with equal fingerprints are indistinguishable to every consumer.
func flowFingerprint(out *runOutcome) string {
	s := fmt.Sprintf("flows=%d incomplete=%d data=%d ooo=%d to=%d rtx=%d\n",
		len(out.Flows), out.Incomplete, out.DataPackets, out.OutOfOrder,
		out.Timeouts, out.Retransmits)
	for _, f := range out.Flows {
		s += fmt.Sprintf("id=%d %d->%d size=%d start=%d recv=%d send=%d ooo=%d data=%d to=%d rtx=%d\n",
			f.ID, f.Src.ID(), f.Dst.ID(), f.Size, f.Start, f.RecvDone, f.SendDone,
			f.OutOfOrder(), f.DataPackets(), f.Sender().Timeouts, f.Sender().Retransmits)
	}
	return s
}

// A point split across engines must be bit-identical to its one-engine run
// at every shard count: same flows, same per-flow event history observables.
func TestShardedMatchesSerialTiny(t *testing.T) {
	spec := allToAllSpec{scheme: ECMP, load: 0.6, flows: 200}
	o := Options{Seed: 7, Scale: ScaleTiny}
	want := flowFingerprint(o.runAllToAll(spec))

	for _, shards := range []int{2, 4, 8} {
		os := o
		os.Shards = shards
		out := os.runAllToAll(spec)
		if out.Engines < 2 {
			t.Fatalf("shards=%d: an ECMP point ran on %d engine(s)", shards, out.Engines)
		}
		if got := flowFingerprint(out); got != want {
			t.Errorf("shards=%d diverges from serial:\n%s", shards, firstDiff(want, got))
		}
	}
}

// A sharded point running under the experiment runner's CPU-token pool must
// borrow its extra workers from that shared budget (so -parallel N -shards M
// never oversubscribes the box), give identical results however many tokens
// it wins, and return every borrowed token when the point finishes.
func TestShardedBorrowsPoolTokens(t *testing.T) {
	spec := allToAllSpec{scheme: ECMP, load: 0.5, flows: 120}
	base := Options{Seed: 3, Scale: ScaleTiny}
	want := flowFingerprint(base.runAllToAll(spec))

	for _, tokens := range []int{1, 2, 8} {
		pl := runpool.New(tokens)
		o := base
		o.Shards = 4
		o.execPool = pl
		out := o.runAllToAll(spec)
		if out.Engines != 4 {
			t.Fatalf("tokens=%d: point ran on %d engine(s), want 4", tokens, out.Engines)
		}
		if got := flowFingerprint(out); got != want {
			t.Errorf("tokens=%d: result depends on borrowed worker count:\n%s", tokens, firstDiff(want, got))
		}
		if got := pl.TryAcquire(tokens); got != tokens {
			t.Errorf("tokens=%d: %d tokens leaked by the sharded run", tokens, tokens-got)
		}
	}
}

// The flowlet-family selectors keep all their state per switch, so their
// points must shard and stay bit-identical to serial execution — the same
// guarantee TestShardedMatchesSerialTiny pins for ECMP.
func TestShardedMatchesSerialFlowletSchemes(t *testing.T) {
	for _, scheme := range []Scheme{Flowlet, FlowDyn} {
		spec := allToAllSpec{scheme: scheme, load: 0.6, flows: 150}
		o := Options{Seed: 7, Scale: ScaleTiny}
		want := flowFingerprint(o.runAllToAll(spec))
		for _, shards := range []int{2, 4, 8} {
			os := o
			os.Shards = shards
			out := os.runAllToAll(spec)
			if out.Engines < 2 {
				t.Fatalf("%v shards=%d: a shardable point ran on %d engine(s)", scheme, shards, out.Engines)
			}
			if got := flowFingerprint(out); got != want {
				t.Errorf("%v shards=%d diverges from serial:\n%s", scheme, shards, firstDiff(want, got))
			}
		}
	}
}

// TestShardPlan pins the one engine-count decision reason by reason: every
// documented refusal yields one engine, for production points exactly as for
// all-to-all points (they differ only in the schedule they hand the runner),
// and the positive control yields the requested count.
func TestShardPlan(t *testing.T) {
	tiny := topo.TinyScale()
	zero := tiny
	zero.LinkDelay, zero.SwitchDelay = 0, 0
	plain := func(s Scheme) schemeSetup { return s.setup(sim.NewRNG(1), core.Config{}, false) }
	custom := func(*sim.RNG) schemeSetup { return plain(ECMP) }
	pfc := plain(ECMP)
	pfc.pfc = plain(DeTail).pfc
	testbed := topo.SmallTestbed()
	arm := func(*topo.FatTree, *sim.RNG) (func(), error) { return nil, nil }

	cases := []struct {
		name   string
		shards int
		pt     point
		p      topo.Params
		set    schemeSetup
		want   int
	}{
		{"ECMP shards", 4, point{scheme: ECMP}, tiny, plain(ECMP), 4},
		{"Flowlet shards", 2, point{scheme: Flowlet}, tiny, plain(Flowlet), 2},
		{"FlowDyn shards", 4, point{scheme: FlowDyn}, tiny, plain(FlowDyn), 4},
		{"more shards than ToRs clamps", 64, point{scheme: ECMP}, tiny, plain(ECMP), 4},
		{"Shards=0", 0, point{scheme: ECMP}, tiny, plain(ECMP), 1},
		{"Shards=1", 1, point{scheme: ECMP}, tiny, plain(ECMP), 1},
		{"FlowBender: shared desync RNG", 4, point{scheme: FlowBender}, tiny, plain(FlowBender), 1},
		{"RPS: shared spray RNG", 4, point{scheme: RPS}, tiny, plain(RPS), 1},
		{"DiffFlow: shared spray RNG", 4, point{scheme: DiffFlow}, tiny, plain(DiffFlow), 1},
		{"RepFlow: host-side replica planning", 4, point{scheme: RepFlow}, tiny, plain(RepFlow), 1},
		{"DeTail: PFC", 4, point{scheme: DeTail}, tiny, plain(DeTail), 1},
		{"PFC on a shardable scheme", 4, point{scheme: ECMP}, tiny, pfc, 1},
		{"injected setupFn", 4, point{scheme: ECMP, setupFn: custom}, tiny, plain(ECMP), 1},
		{"setup-time burst", 4, point{scheme: ECMP, burst: true}, tiny, plain(ECMP), 1},
		{"one-pod testbed ECMP shards", 4, point{scheme: ECMP, params: &testbed}, testbed, plain(ECMP), 4},
		{"arm hook", 4, point{scheme: ECMP, arm: arm}, tiny, plain(ECMP), 1},
		{"zero lookahead", 4, point{scheme: ECMP}, zero, plain(ECMP), 1},
	}
	for _, tc := range cases {
		o := Options{Seed: 1, Scale: ScaleTiny, Shards: tc.shards}
		part, n := o.shardPlan(&tc.pt, tc.p, tc.set)
		if n != tc.want {
			t.Errorf("%s: %d engine(s), want %d", tc.name, n, tc.want)
		}
		if n > 1 && part.Shards != n {
			t.Errorf("%s: partition has %d shards for %d engines", tc.name, part.Shards, n)
		}
	}
}

// Points that cannot shard safely must run on one engine, whichever entry
// they come through: the all-to-all and the production point of every scheme
// report the same engine count.
func TestShardedFallbacks(t *testing.T) {
	cdf := workload.WebSearchCDF()
	for _, scheme := range AllSchemes {
		for _, shards := range []int{0, 1, 4} {
			o := Options{Seed: 1, Scale: ScaleTiny, Shards: shards}
			want := 1
			if shards > 1 && scheme.shardable() {
				want = shards
			}
			if got := o.runAllToAll(allToAllSpec{scheme: scheme, load: 0.3, flows: 50}).Engines; got != want {
				t.Errorf("all-to-all %v shards=%d: ran on %d engine(s), want %d", scheme, shards, got, want)
			}
			if got := o.runProduction(scheme, cdf, 40).engines; got != want {
				t.Errorf("production %v shards=%d: ran on %d engine(s), want %d", scheme, shards, got, want)
			}
		}
	}
	o := Options{Seed: 1, Scale: ScaleTiny, Shards: 4}
	// Differential tests inject custom setups whose semantics the shard plan
	// cannot know; those points must always run serial.
	custom := allToAllSpec{scheme: ECMP, load: 0.3, flows: 50,
		setupFn: func(rng *sim.RNG) schemeSetup {
			return schemeSetup{cfg: tcp.DefaultConfig(), sel: routing.ECMP{}}
		}}
	if n := o.runAllToAll(custom).Engines; n != 1 {
		t.Errorf("setupFn point ran on %d engines, want 1", n)
	}
	// A fabric with zero switch and link delay has no cross-shard slack.
	zero := topo.TinyScale()
	zero.LinkDelay, zero.SwitchDelay = 0, 0
	if n := o.runAllToAll(allToAllSpec{scheme: ECMP, load: 0.3, flows: 50, params: &zero}).Engines; n != 1 {
		t.Errorf("zero-lookahead fabric ran on %d engines, want 1", n)
	}
}
