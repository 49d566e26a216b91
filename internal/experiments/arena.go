package experiments

import (
	"flowbender/internal/fluid"
	"flowbender/internal/sim"
)

// arena is the simulator state a pool worker carries from one simulation
// point to its next: event engines (event free list, due and overflow heap
// arrays) and the fluid simulation with its link model and solver arenas. A
// sweep's points are the same size, so after a worker's first point the rest
// run without rebuilding any of it. The pool the points run under owns the
// free list (runpool.Pool.TakeScratch): at most one arena per worker, gone
// with the pool. A point run outside a pool builds its own and keeps nothing.
type arena struct {
	engines []*sim.Engine
	fluid   *fluid.Sim
}

// takeArena draws the arena the current point runs on.
func (o Options) takeArena() *arena {
	if o.execPool != nil {
		if a, ok := o.execPool.TakeScratch().(*arena); ok {
			return a
		}
	}
	return &arena{}
}

// releaseArena hands a back to the pool. The caller must be done reading
// engine and fluid state: the engines are reset here, not at the next take,
// so the finished point's pending events — closures over its whole fabric —
// do not outlive it.
func (o Options) releaseArena(a *arena) {
	if o.execPool == nil {
		return
	}
	for _, eng := range a.engines {
		eng.Reset()
	}
	if a.fluid != nil {
		a.fluid.OnDone = nil
	}
	o.execPool.PutScratch(a)
}

// engine returns the arena's i-th engine: at time zero, nothing pending.
func (a *arena) engine(i int) *sim.Engine {
	for len(a.engines) <= i {
		a.engines = append(a.engines, sim.NewEngine())
	}
	return a.engines[i]
}

// fluidSim returns the arena's fluid simulation, re-initialized for cfg on eng.
func (a *arena) fluidSim(eng *sim.Engine, cfg fluid.Config) *fluid.Sim {
	if a.fluid == nil {
		a.fluid = fluid.NewSim(eng, cfg)
	} else {
		a.fluid.Reset(eng, cfg)
	}
	return a.fluid
}
