package experiments

import (
	"runtime"
	"testing"

	"flowbender/internal/core"
	"flowbender/internal/runpool"
	"flowbender/internal/sim"
)

// TestWarmFabricPointAllocations is TestWarmArenaPointAllocations for the
// packet engine: on the arena a worker's earlier points left — whichever
// schemes they ran — a 64-host all-to-all point builds nothing. Taking the
// fabric (reset, selector) allocates exactly nothing for any of the eight
// setups, PFC or not; and the whole point allocates its bookkeeping plus its
// flows' transport state — sender, receiver, timers, reassembly and SACK
// state where a scheme reorders — which is what the per-flow allowances
// below are; the two flowlet schemes empty the tables their switches kept
// (TestWarmFlowletPointAllocatesNoTable). A cold point
// allocates some 5,000 times more than that for the fabric alone (224 ports,
// 28 switches with their route tables and memos, 64 hosts), and the least a
// fabric array slipping back in could add is one allocation a port: more
// than any allowance's headroom.
func TestWarmFabricPointAllocations(t *testing.T) {
	const flows, fixed = 40, 80
	// Allocations of a whole point over its flows, measured (the third point
	// of a scheme on the worker, seed 1, load 60%) and rounded up: ECMP 7.4,
	// FlowBender 11.9, RPS 27.6, DeTail 24.9, Flowlet 7.5, FlowDyn 7.6,
	// RepFlow 12.4, DiffFlow 8.5.
	perFlow := map[Scheme]int{ECMP: 8, FlowBender: 12, RPS: 30, DeTail: 25, Flowlet: 9, FlowDyn: 9, RepFlow: 14, DiffFlow: 9}
	o := Options{Seed: 1, Scale: ScaleSmall}
	o.execPool = runpool.New(1)
	for _, s := range AllSchemes {
		point := func() {
			if out := o.runAllToAll(allToAllSpec{scheme: s, load: 0.6, flows: flows}); out.Incomplete != 0 {
				t.Fatalf("%s: %d flows incomplete", s, out.Incomplete)
			}
		}
		point() // the scheme's first point on the worker: ECMP's builds the fabric
		limit := float64(fixed + perFlow[s]*flows)
		if got := testing.AllocsPerRun(2, point); got > limit {
			t.Errorf("%s: a point on a warm fabric allocates %.0f times, limit %.0f", s, got, limit)
		}
		if held := o.execPool.ScratchHeld(); held != 1 {
			t.Errorf("%s: pool holds %d arenas after its points, want 1", s, held)
		}
	}

	// The take alone, every setup after every other.
	ar := o.takeArena()
	defer o.releaseArena(ar)
	p := o.params()
	sets := make([]schemeSetup, len(AllSchemes))
	for i, s := range AllSchemes {
		sets[i] = s.setup(sim.NewRNG(1), core.Config{}, false)
	}
	i := 0
	if got := testing.AllocsPerRun(3*len(sets), func() {
		ar.fatTree(sets[i%len(sets)], p)
		i++
	}); got != 0 {
		t.Errorf("taking a warm fabric allocates %.2f times a take, want 0", got)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes one
// call of f allocates, after one call to warm up.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestWarmFlowletPointAllocatesNoTable: a switch keeps the flowlet table a
// Flowlet or FlowDyn point filled, and the next flowlet point on the fabric
// empties it in place, so a warm flowlet point allocates what an ECMP point
// does and no table. One table — its map sized for 64 flowlets and the
// entries — is some 4 KB a choosing switch, and the fabric has 24 of them:
// before tables were kept, a warm Flowlet point allocated 93 KB more than
// ECMP's and a FlowDyn point 99 KB more; measured with tables kept, 8 bytes
// and 212 bytes more (FlowDyn's gap reads).
func TestWarmFlowletPointAllocatesNoTable(t *testing.T) {
	const slack = 2 << 10 // less than one table
	o := Options{Seed: 1, Scale: ScaleSmall}
	o.execPool = runpool.New(1)
	bytes := map[Scheme]uint64{}
	for _, s := range []Scheme{ECMP, Flowlet, FlowDyn} {
		bytes[s] = bytesPerRun(4, func() {
			o.runAllToAll(allToAllSpec{scheme: s, load: 0.6, flows: 40})
		})
	}
	for _, s := range []Scheme{Flowlet, FlowDyn} {
		if bytes[s] > bytes[ECMP]+slack {
			t.Errorf("%s: a point on a warm fabric allocates %d bytes, ECMP's %d: more than %d over", s, bytes[s], bytes[ECMP], slack)
		}
	}
}

// TestWarmFlowletPointMatchesCold: the tables a switch keeps from earlier
// points are never seen. A flowlet point after a point of its own scheme,
// of the other flowlet scheme, after one cut short by its deadline with its
// queues full (FlowDyn's drain estimates high), or after an ECMP point that
// disowned the tables without touching them, renders what it renders on a
// new fabric — the same flows, so a table not emptied finds every one.
func TestWarmFlowletPointMatchesCold(t *testing.T) {
	warm := runpool.New(1)
	for i, step := range []struct {
		s   Scheme
		cut bool
	}{{Flowlet, false}, {Flowlet, false}, {FlowDyn, false}, {FlowDyn, false}, {Flowlet, false},
		{FlowDyn, true}, {FlowDyn, false}, {ECMP, false}, {FlowDyn, false}, {Flowlet, true}, {FlowDyn, false}} {
		o := Options{Seed: 1, Scale: ScaleTiny}
		if step.cut {
			o.debugMaxWait = 2 * sim.Millisecond
		}
		spec := allToAllSpec{scheme: step.s, load: 0.6, flows: 30}
		o.execPool = runpool.New(1)
		want := outcomeText(o.runAllToAll(spec))
		o.execPool = warm
		if got := outcomeText(o.runAllToAll(spec)); got != want {
			t.Errorf("point %d, %s, on a warm fabric:\n  got  %s\n  want %s", i, step.s, got, want)
		}
	}
}
