package experiments

import (
	"testing"

	"flowbender/internal/runpool"
)

// TestWarmArenaPointAllocations gates what a worker's second point costs: on
// the arena its first point left (engine, link model, solver, transfer
// slots), a 10,240-host fluid all-to-all point allocates only its per-point
// bookkeeping — the schedule, the RNG forks, the outcome's sketches — however
// large the fabric and whichever scheme. A cold point of the sprayed scheme
// allocates some 1,600 times; the limit leaves the bookkeeping (66–71 today)
// room without letting a per-link or per-session array slip back in.
func TestWarmArenaPointAllocations(t *testing.T) {
	const limit = 100
	for _, s := range []Scheme{ECMP, FlowBender, RPS, RepFlow, DiffFlow} {
		o := Options{Seed: 1, Scale: ScaleHyper, Engine: EngineFluid, FlowCount: 500}
		o.execPool = runpool.New(1)
		point := func() {
			if out := o.runAllToAll(allToAllSpec{scheme: s, load: 0.6}); out.Incomplete != 0 {
				t.Fatalf("%s: %d flows incomplete", s, out.Incomplete)
			}
		}
		point() // the worker's first point builds the arena
		if got := testing.AllocsPerRun(3, point); got > limit {
			t.Errorf("%s: a point on a warm arena allocates %.0f times, limit %d", s, got, limit)
		}
		if held := o.execPool.ScratchHeld(); held != 1 {
			t.Errorf("%s: pool holds %d arenas after its points, want 1", s, held)
		}
	}
}
