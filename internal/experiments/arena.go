package experiments

import (
	"flowbender/internal/fluid"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
)

// arena is the simulator state a pool worker carries from one simulation
// point to its next: event engines (event free list, due and overflow heap
// arrays), the fluid simulation with its link model and solver arenas, and
// the packet fabrics — hosts, switches, ports with their queues and ledgers,
// route tables, selector memos, packet pool. A sweep's points run on one
// fabric, so after a worker's first point the rest run without rebuilding any
// of it. The pool the points run under owns the free list
// (runpool.Pool.TakeScratch): at most one arena per worker, gone with the
// pool. A point run outside a pool builds its own and keeps nothing.
//
// What is keyed by what: engines by index (a serial point uses engine 0, a
// sharded one the first n); the fluid simulation is one, re-laid for each
// point's Config; a fabric by the engine its devices were built on and its
// topo.Shape — the fields that decide devices, cables and routes. Everything
// else a point configures (rates, delays, queue bounds, shared buffer, PFC,
// the selector) is re-applied by the fabric's Reset, which is the second half
// of its constructor: a fabric taken from here is, field for field, the one
// topo.NewFatTree would have built (TestResetFabricEqualsFresh). The arena
// keeps every shape it has seen, so a worker whose points alternate shapes
// does not rebuild either. A sharded point builds its own fabric.
type arena struct {
	engines  []*sim.Engine
	fluid    *fluid.Sim
	fatTrees map[fabricKey]*topo.FatTree
}

// fabricKey names one of an arena's fabrics.
type fabricKey struct {
	eng   *sim.Engine
	shape topo.Shape
}

// takeArena draws the arena the current point runs on.
func (o Options) takeArena() *arena {
	if o.execPool != nil {
		if a, ok := o.execPool.TakeScratch().(*arena); ok {
			return a
		}
	}
	return &arena{fatTrees: make(map[fabricKey]*topo.FatTree)}
}

// releaseArena hands a back to the pool. The caller must be done reading
// engine, fluid and fabric state: the engines are reset here, not at the next
// take, so the finished point's pending events — closures over its flows and
// packets — do not outlive it. A fabric is reset when it is next taken, so
// it does not matter how the point that leaves it ended; until then it holds
// on to what that point left in its queues and handler tables.
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

// fatTree returns the fabric set describes for p on eng, selector installed:
// the arena's fat-tree of p's shape, reset, or a new one the arena keeps.
func (a *arena) fatTree(set schemeSetup, eng *sim.Engine, p topo.Params) *topo.FatTree {
	p.PFC = set.pfc
	key := fabricKey{eng, p.Shape()}
	ft, ok := a.fatTrees[key]
	if ok {
		ft.Reset(p)
	} else {
		ft = topo.NewFatTree(eng, p)
		a.fatTrees[key] = ft
	}
	ft.SetSelector(set.sel)
	return ft
}
