package experiments

import (
	"flowbender/internal/fluid"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
)

// arena is the simulator state a pool worker carries from one simulation
// point to its next: the event engine (event free list, due and overflow
// heap arrays), the fluid simulation with its link model and solver arenas, and
// the packet fabrics — hosts, switches, ports with their queues and ledgers,
// route tables, selector memos, packet pool. A sweep's points run on one
// fabric, so after a worker's first point the rest run without rebuilding any
// of it. The pool the points run under owns the free list
// (runpool.Pool.TakeScratch): at most one arena per worker, gone with the
// pool. A point run outside a pool builds its own and keeps nothing.
//
// What is keyed by what: the engine and the fluid simulation are one each,
// the fluid simulation re-laid for each point's Config; a fabric, built on
// the arena's engine, by its topo.Shape — the fields that decide devices,
// cables and routes. Everything
// else a point configures (rates, delays, queue bounds, shared buffer, PFC,
// the selector) is re-applied by the fabric's Reset, which is the second half
// of its constructor: a fabric taken from here is, field for field, the one
// topo.NewFatTree would have built (TestResetFabricEqualsFresh). The arena
// keeps every shape it has seen, so a worker whose points alternate shapes
// does not rebuild either.
type arena struct {
	eng      *sim.Engine
	fluid    *fluid.Sim
	fatTrees map[topo.Shape]*topo.FatTree
}

// takeArena draws the arena the current point runs on.
func (o Options) takeArena() *arena {
	if o.execPool != nil {
		if a, ok := o.execPool.TakeScratch().(*arena); ok {
			return a
		}
	}
	return &arena{eng: sim.NewEngine(), fatTrees: make(map[topo.Shape]*topo.FatTree)}
}

// releaseArena hands a back to the pool. The caller must be done reading
// engine, fluid and fabric state: the engine is reset here, not at the next
// take, so the finished point's pending events — closures over its flows and
// packets — do not outlive it. A fabric is reset when it is next taken, so
// it does not matter how the point that leaves it ended; until then it holds
// on to what that point left in its queues and handler tables.
func (o Options) releaseArena(a *arena) {
	if o.execPool == nil {
		return
	}
	a.eng.Reset()
	if a.fluid != nil {
		a.fluid.OnDone = nil
	}
	o.execPool.PutScratch(a)
}

// fluidSim returns the arena's fluid simulation, re-initialized for cfg on
// the arena's engine.
func (a *arena) fluidSim(cfg fluid.Config) *fluid.Sim {
	if a.fluid == nil {
		a.fluid = fluid.NewSim(a.eng, cfg)
	} else {
		a.fluid.Reset(a.eng, cfg)
	}
	return a.fluid
}

// fatTree returns the fabric set describes for p on the arena's engine,
// selector installed: the arena's fat-tree of p's shape, reset, or a new one
// the arena keeps.
func (a *arena) fatTree(set schemeSetup, p topo.Params) *topo.FatTree {
	p.PFC = set.pfc
	ft, ok := a.fatTrees[p.Shape()]
	if ok {
		ft.Reset(p)
	} else {
		ft = topo.NewFatTree(a.eng, p)
		a.fatTrees[p.Shape()] = ft
	}
	ft.SetSelector(set.sel)
	return ft
}
