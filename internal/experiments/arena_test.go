package experiments

import (
	"fmt"
	"testing"

	"flowbender/internal/fluid"
	"flowbender/internal/runpool"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
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

// TestFluidPointAfterPanicMatchesCold: a fluid point whose completion handler
// panics mid-run hands its arena back to the pool as the panic left it — the
// engine reset on the way out, the fluid simulation and its solver not. The
// worker's next fluid point, of any fluid model, must render what it renders
// on a pool of its own. (internal/fluid's TestResetAfterPanickedRun makes a
// handler die with solver work staged and the wake and flush events filed.)
func TestFluidPointAfterPanicMatchesCold(t *testing.T) {
	o := Options{Seed: 1, Scale: ScaleSmall, Engine: EngineFluid, FlowCount: 300}
	render := func(o Options, s Scheme) string {
		out := o.runAllToAll(allToAllSpec{scheme: s, load: 0.6})
		return fmt.Sprintf("%s events=%d", outcomeText(out), out.Events)
	}
	dies := func(o Options) {
		defer func() {
			if r := recover(); r != errInjected {
				t.Fatalf("the dying point ended with %v", r)
			}
		}()
		done := 0
		o.runPoint(point{scheme: FlowBender, flows: 200,
			workload: func(_ *sim.RNG, p topo.Params) (workload.Schedule, sim.Time) {
				n := p.NumHosts()
				bs := make(batches, 200)
				for i := range bs {
					bs[i] = []workload.FlowSpec{{At: sim.Time(i) * 2 * sim.Microsecond, SrcIdx: int32(i % n),
						DstIdx: int32((i + n/2) % n), Size: 200_000}}
				}
				return &bs, sim.Second
			},
			onFluid: func(fluid.Done) {
				if done++; done == 50 {
					panic(errInjected)
				}
			}})
	}
	for _, s := range []Scheme{ECMP, DiffFlow, FlowBender} {
		cold := o
		cold.execPool = runpool.New(1)
		want := render(cold, s)
		warm := o
		warm.execPool = runpool.New(1)
		dies(warm)
		if held := warm.execPool.ScratchHeld(); held != 1 {
			t.Fatalf("%s: the pool holds %d arenas after the panic, want the dead point's", s, held)
		}
		if got := render(warm, s); got != want {
			t.Errorf("%s after a panicked fluid point:\n  got  %s\n  cold %s", s, got, want)
		}
	}
}
