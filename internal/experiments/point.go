package experiments

import (
	"flowbender/internal/core"
	"flowbender/internal/fluid"
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// point is one simulation point: everything beyond Options (seed, scale,
// engine) that determines its run. runPoint is the only code that executes
// one, so every scheme — on either engine — sees the identical substrate and
// arrival sequence by construction.
type point struct {
	scheme Scheme
	fb     core.Config // FlowBender overrides (zero = paper defaults)
	rawFB  bool        // take fb verbatim, without the evaluation defaults
	// setupFn, when non-nil, replaces the scheme's standard setup (the
	// degenerate-config differential tests, the ablations' validation
	// scenario and the WCMP variants inject exact configurations through it).
	// Such points always run on the packet engine.
	setupFn func(rng *sim.RNG) schemeSetup
	// params overrides the Options-derived fat-tree parameters (the
	// testbed experiments' one-pod fabric).
	params *topo.Params

	// flows is the number of flows the schedule plans; the point is done
	// when that many have started and every started flow has completed. A
	// schedule may run one arrival past it: that beacon fires and starts
	// nothing. math.MaxInt runs the point until its deadline or until
	// nothing is pending.
	flows int
	// workload draws the arrival schedule and names the virtual-time
	// deadline. It gets the point's root RNG; a schedule that draws forks its
	// stream "workload" off it (independent of the scheme stream, so every
	// scheme sees the identical arrivals). Endpoints are host indices; flow i
	// of the schedule runs under ID idBase+i+1, and each batch is one arrival
	// beacon.
	workload func(root *sim.RNG, p topo.Params) (workload.Schedule, sim.Time)
	idBase   netsim.FlowID
	// burst starts the whole schedule synchronously at setup instead of
	// through workload.Replay (Table 1's simultaneous flows).
	burst bool
	// armFirst selects the beacon order the fluid all-to-all point is pinned
	// to (see workload.Replay).
	armFirst bool

	// arm runs once, on the point's packet engine, after the fabric is
	// built and before the first arrival, with the point's root RNG: it edits
	// the fabric, files fault events and starts traffic of its own. An error
	// (a fault plan faults.Apply refuses) ends the point before it runs.
	// measure, when non-nil, runs after the drain, while the fabric still
	// holds what the point left in it.
	arm func(ft *topo.FatTree, rng *sim.RNG) (measure func(), err error)
	// onBarrier runs at every 5 ms drain barrier, with the engine idle at
	// now.
	onBarrier func(now sim.Time)
	// onFlow receives every packet-engine flow at its start.
	onFlow func(f *tcp.Flow)
	// onDone runs at a packet flow's completion instant.
	onDone func(kind workload.PatternKind, f *tcp.Flow)
	// onFluid receives every fluid-engine completion. A point without one
	// has no fluid form and runs on the packet engine.
	onFluid func(d fluid.Done)
}

// pointResult is what runPoint itself measured.
type pointResult struct {
	events             int64 // engine events the point executed
	started, completed int64
	simTime            sim.Time // virtual time the engine reached
	err                error    // what arm refused; the point did not run
}

// batches is a drawn schedule served batch by batch.
type batches [][]workload.FlowSpec

func (b *batches) NextBatch() []workload.FlowSpec {
	if len(*b) == 0 {
		return nil
	}
	out := (*b)[0]
	*b = (*b)[1:]
	return out
}

// fluidPoint reports whether a point runs on the fluid engine: Options.Engine
// asks for it and the point has a fluid form — the scheme's own setup on the
// fat-tree, nothing armed on the fabric, and a fluid completion handler.
func (o Options) fluidPoint(pt *point) bool {
	return o.Engine == EngineFluid && pt.setupFn == nil && pt.arm == nil && pt.onFluid != nil
}

// runPoint executes one simulation point: resolve parameters, fork the RNG
// streams, set the scheme up, build the fabric (or the fluid simulation),
// inject the arrivals, drain on the 5 ms barrier grid, record perf.
func (o Options) runPoint(pt point) pointResult {
	p := o.params()
	if pt.params != nil {
		p = *pt.params
	}
	root := sim.NewRNG(o.Seed)
	schemeRNG := root.Fork("scheme")
	src, deadline := pt.workload(root, p)

	// The engine (and the fluid simulation) come from the worker's arena
	// and go back when the point has read its last from them.
	ar := o.takeArena()
	defer o.releaseArena(ar)
	eng := ar.eng
	// Arrival and completion events bump the counters; the drain predicate
	// reads them at barriers.
	var started, completed int64

	inject := func(start func(id netsim.FlowID, s workload.FlowSpec)) {
		one := func(i int, s workload.FlowSpec) {
			if i >= pt.flows {
				return
			}
			started++
			start(pt.idBase+netsim.FlowID(i+1), s)
		}
		if pt.burst {
			i := 0
			for b := src.NextBatch(); b != nil && i < pt.flows; b = src.NextBatch() {
				for _, s := range b {
					one(i, s)
					i++
				}
			}
			return
		}
		workload.Replay(eng, src, pt.armFirst, one)
	}

	var measure func()
	if o.fluidPoint(&pt) {
		cfg := fluidConfig(p, pt.scheme, pt.fb, pt.rawFB, schemeRNG)
		cfg.SolverShards = o.SolverShards
		fs := ar.fluidSim(cfg)
		fs.OnDone = func(d fluid.Done) {
			completed++
			pt.onFluid(d)
		}
		inject(func(id netsim.FlowID, s workload.FlowSpec) {
			fs.Arrive(id, s.SrcIdx, s.DstIdx, s.Size, int32(s.Kind))
		})
	} else {
		var set schemeSetup
		if pt.setupFn != nil {
			set = pt.setupFn(schemeRNG)
		} else {
			set = pt.scheme.setup(schemeRNG, pt.fb, pt.rawFB)
		}
		ft := ar.fatTree(set, p)
		if pt.arm != nil {
			var err error
			if measure, err = pt.arm(ft, root); err != nil {
				return pointResult{err: err}
			}
		}
		inject(func(id netsim.FlowID, s workload.FlowSpec) {
			f := tcp.StartFlow(eng, set.cfg, id, ft.Hosts[s.SrcIdx], ft.Hosts[s.DstIdx], s.Size)
			if pt.onFlow != nil {
				pt.onFlow(f)
			}
			if pt.onDone == nil {
				// One captured pointer: the closure most flows carry stays small.
				f.OnComplete = func(*tcp.Flow) { completed++ }
				return
			}
			kind := s.Kind
			f.OnComplete = func(f *tcp.Flow) {
				completed++
				pt.onDone(kind, f)
			}
		})
	}

	done := func() bool { return started == int64(pt.flows) && completed == started }
	o.drain(eng, deadline, done, pt.onBarrier)
	o.recordPerf(eng)
	if measure != nil {
		measure()
	}
	return pointResult{
		events: int64(eng.Executed), started: started, completed: completed, simTime: eng.Now(),
	}
}

// drainChunk is the barrier grid drain stops on.
const drainChunk = 5 * sim.Millisecond

// drain advances the engine in chunks until done() or the deadline, calling
// barrier, when non-nil, at every chunk boundary: the engine is quiescent
// there (Run leaves now == the boundary).
func (o Options) drain(eng *sim.Engine, deadline sim.Time, done func() bool, barrier func(now sim.Time)) {
	for eng.Now() < deadline && !done() {
		next := eng.Now() + drainChunk
		if next > deadline {
			next = deadline
		}
		eng.Run(next)
		if barrier != nil {
			barrier(eng.Now())
		}
		if eng.Pending() == 0 {
			return
		}
	}
}
