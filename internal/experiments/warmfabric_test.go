package experiments

import (
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
// state where a scheme reorders, the flowlet tables of the two flowlet
// schemes — which is what the per-flow allowances below are. A cold point
// allocates some 5,000 times more than that for the fabric alone (224 ports,
// 28 switches with their route tables and memos, 64 hosts), and the least a
// fabric array slipping back in could add is one allocation a port: more
// than any allowance's headroom.
func TestWarmFabricPointAllocations(t *testing.T) {
	const flows, fixed = 40, 80
	// Allocations per flow, measured (the third point of a scheme on the
	// worker, seed 1, load 60%) and rounded up: ECMP 6.4, FlowBender 10.3,
	// RPS 26.8, DeTail 21.6, Flowlet 11.7, FlowDyn 14.6, RepFlow 12.0,
	// DiffFlow 7.5.
	perFlow := map[Scheme]int{ECMP: 8, FlowBender: 12, RPS: 30, DeTail: 25, Flowlet: 13, FlowDyn: 16, RepFlow: 14, DiffFlow: 9}
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
	eng, p := ar.engine(0), o.params()
	sets := make([]schemeSetup, len(AllSchemes))
	for i, s := range AllSchemes {
		sets[i] = s.setup(sim.NewRNG(1), core.Config{})
	}
	i := 0
	if got := testing.AllocsPerRun(3*len(sets), func() {
		ar.fatTree(sets[i%len(sets)], eng, p)
		i++
	}); got != 0 {
		t.Errorf("taking a warm fabric allocates %.2f times a take, want 0", got)
	}
}
