package experiments

import (
	"runtime"

	"flowbender/internal/core"
	"flowbender/internal/fluid"
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// point is one simulation point: everything beyond Options (seed, scale,
// engine, shards) that determines its run. runPoint is the only code that
// executes one, so every scheme — and every execution mode of a scheme — sees
// the identical substrate and arrival sequence by construction.
type point struct {
	scheme Scheme
	fb     core.Config // FlowBender overrides (zero = paper defaults)
	rawFB  bool        // take fb verbatim, without the evaluation defaults
	// setupFn, when non-nil, replaces the scheme's standard setup (the
	// degenerate-config differential tests, the ablations' validation
	// scenario and the WCMP variants inject exact configurations through it).
	// Such points always run on one packet engine.
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

	// arm runs once, on the point's one packet engine, after the fabric is
	// built and before the first arrival, with the point's root RNG: it edits
	// the fabric, files fault events and starts traffic of its own. An error
	// (a fault plan faults.Apply refuses) ends the point before it runs.
	// measure, when non-nil, runs after the drain, while the fabric still
	// holds what the point left in it.
	arm func(ft *topo.FatTree, rng *sim.RNG) (measure func(), err error)
	// onBarrier runs at every 5 ms drain barrier, with every engine idle at
	// now.
	onBarrier func(now sim.Time)
	// onFlow receives every packet-engine flow when it is created: at its
	// start on one engine, at planning time — before the run — on several.
	onFlow func(f *tcp.Flow)
	// onDone runs at a packet flow's completion instant, on the engine of
	// the destination host; calls for different shards run concurrently.
	onDone func(shard int, kind workload.PatternKind, f *tcp.Flow)
	// onFluid receives every fluid-engine completion. A point without one
	// has no fluid form and runs on the packet engine.
	onFluid func(d fluid.Done)
}

// pointResult is what runPoint itself measured.
type pointResult struct {
	engines            int   // engines the point ran on (1 = serial)
	events             int64 // engine events they executed between them
	started, completed int64
	simTime            sim.Time // furthest virtual time any engine reached
	err                error    // what arm refused; the point did not run
}

// batches is a drawn schedule served again, batch by batch. A copy replays
// it afresh.
type batches [][]workload.FlowSpec

func (b *batches) NextBatch() []workload.FlowSpec {
	if len(*b) == 0 {
		return nil
	}
	out := (*b)[0]
	*b = (*b)[1:]
	return out
}

// drawBatches draws src's first n flows, clipping the batch that holds the
// nth: flat holds them in order, and each batch is a slice of it.
func drawBatches(src workload.Schedule, n int) (flat []workload.FlowSpec, bs batches) {
	flat = make([]workload.FlowSpec, 0, n)
	for b := src.NextBatch(); b != nil && len(flat) < n; b = src.NextBatch() {
		at := len(flat)
		flat = append(flat, b[:min(len(b), n-at)]...)
		bs = append(bs, flat[at:])
	}
	return flat, bs
}

// fluidPoint reports whether a point runs on the fluid engine: Options.Engine
// asks for it and the point has a fluid form — the scheme's own setup on the
// fat-tree, nothing armed on the fabric, and a fluid completion handler.
func (o Options) fluidPoint(pt *point) bool {
	return o.Engine == EngineFluid && pt.setupFn == nil && pt.arm == nil && pt.onFluid != nil
}

// shardPlan decides how many engines a packet point runs on, and is the
// single home of every "can this point shard?" guard. A point splits across
// Options.Shards conservatively synchronized engines only when that is both
// safe and bit-identical to one engine; otherwise it runs serial:
//
//   - Shards <= 1: nothing to split. (The fluid engine never gets here: one
//     fluid point is orders of magnitude cheaper than its packet twin, so it
//     always runs on one engine.)
//   - a scheme the schemes table marks unshardable; the table says why.
//   - an injected setupFn: its semantics are unknown here.
//   - an arm hook: it works on one engine's fabric.
//   - a setup-time burst: there is no arrival schedule to replay.
//   - PFC configured: pause/unpause is synchronous fabric back-pressure
//     with zero slack, so the cross-shard lookahead would be zero.
//   - the partition has no cross-shard cable (it degenerated to one shard)
//     or no positive lookahead (zero-delay cross-shard paths).
func (o Options) shardPlan(pt *point, p topo.Params, set schemeSetup) (topo.Partition, int) {
	if o.Shards <= 1 || !pt.scheme.shardable() || pt.setupFn != nil || pt.arm != nil || pt.burst || set.pfc != nil {
		return topo.Partition{}, 1
	}
	part := topo.PartitionFatTree(p, o.Shards)
	if _, ok := part.Lookahead(p); !ok {
		return topo.Partition{}, 1
	}
	return part, part.Shards
}

// runPoint executes one simulation point: resolve parameters, fork the RNG
// streams, set the scheme up, decide the engine set, build the fabric,
// inject the arrivals, drain on the 5 ms barrier grid, record perf. The
// serial run is simply the one-engine case — the reference the sharded
// identity tests compare against — and the drain loop is chosen from the
// engine count alone.
func (o Options) runPoint(pt point) pointResult {
	p := o.params()
	if pt.params != nil {
		p = *pt.params
	}
	root := sim.NewRNG(o.Seed)
	schemeRNG := root.Fork("scheme")
	src, deadline := pt.workload(root, p)

	// Decide the engine set. The fluid engine always runs on one engine;
	// a packet point asks shardPlan.
	fluidEng := o.fluidPoint(&pt)
	var set schemeSetup
	var part topo.Partition
	n := 1
	if !fluidEng {
		if pt.setupFn != nil {
			set = pt.setupFn(schemeRNG)
		} else {
			set = pt.scheme.setup(schemeRNG, pt.fb, pt.rawFB)
		}
		part, n = o.shardPlan(&pt, p, set)
	}
	// The engines (and the fluid simulation) come from the worker's arena
	// and go back when the point has read its last from them.
	ar := o.takeArena()
	defer o.releaseArena(ar)
	engines := make([]*sim.Engine, n)
	for i := range engines {
		engines[i] = ar.engine(i)
	}
	// Arrival and completion events bump the counters of the engine they run
	// on; the drain predicate sums them at barriers.
	count := make([]struct{ started, completed int64 }, n)

	// inject feeds the schedule to a one-engine point.
	inject := func(start func(id netsim.FlowID, s workload.FlowSpec)) {
		one := func(i int, s workload.FlowSpec) {
			if i >= pt.flows {
				return
			}
			count[0].started++
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
		workload.Replay(engines[0], src, pt.armFirst, one)
	}
	// track wires a packet flow into the completion counter of the shard
	// that will observe its completion, and into the point's recorder.
	track := func(shard int, kind workload.PatternKind, f *tcp.Flow) {
		if pt.onFlow != nil {
			pt.onFlow(f)
		}
		c := &count[shard]
		if pt.onDone == nil {
			// One captured pointer: the closure most flows carry stays small.
			f.OnComplete = func(*tcp.Flow) { c.completed++ }
			return
		}
		f.OnComplete = func(f *tcp.Flow) {
			c.completed++
			pt.onDone(shard, kind, f)
		}
	}

	var fs *fluid.Sim
	var sft *topo.ShardedFatTree
	var measure func()
	switch {
	case fluidEng:
		cfg := fluidConfig(p, pt.scheme, pt.fb, pt.rawFB, schemeRNG)
		cfg.SolverShards = o.SolverShards
		fs = ar.fluidSim(engines[0], cfg)
		fs.OnDone = func(d fluid.Done) {
			count[0].completed++
			pt.onFluid(d)
		}
		inject(func(id netsim.FlowID, s workload.FlowSpec) {
			fs.Arrive(id, s.SrcIdx, s.DstIdx, s.Size, int32(s.Kind))
		})
	case n == 1:
		ft := ar.fatTree(set, engines[0], p)
		if pt.arm != nil {
			var err error
			if measure, err = pt.arm(ft, root); err != nil {
				return pointResult{engines: 1, err: err}
			}
		}
		inject(func(id netsim.FlowID, s workload.FlowSpec) {
			track(0, s.Kind, tcp.StartFlow(engines[0], set.cfg, id, ft.Hosts[s.SrcIdx], ft.Hosts[s.DstIdx], s.Size))
		})
	default:
		// Several engines: plan every flow up front — O(flows) memory; the
		// flat-memory guarantee belongs to the one-engine replay — and replay
		// the plan's batches on every shard. Each beacon starts the
		// receiver if the destination is shard-local, then the sender if the
		// source is; shards hosting neither endpoint pay one no-op event per
		// batch, a rounding error next to the packet traffic.
		sft = topo.NewShardedFatTree(engines, p, part)
		sft.SetSelector(set.sel)
		plan, bs := drawBatches(src, pt.flows)
		pend := make([]*tcp.PendingFlow, len(plan))
		for i, s := range plan {
			pend[i] = tcp.PlanFlow(set.cfg, pt.idBase+netsim.FlowID(i+1), sft.Hosts[s.SrcIdx], sft.Hosts[s.DstIdx], s.Size)
			track(part.HostShard[s.DstIdx], s.Kind, pend[i].Flow())
		}
		for sh := range engines {
			sh, once := sh, bs
			workload.Replay(engines[sh], &once, false, func(i int, s workload.FlowSpec) {
				if part.HostShard[s.DstIdx] == sh {
					pend[i].StartReceiver()
				}
				if part.HostShard[s.SrcIdx] == sh {
					pend[i].StartSender()
					count[sh].started++
				}
			})
		}
	}

	// One drain predicate for every engine and engine count. Each shard
	// writes its own counter pair on its own events; they are only read at
	// barriers, where the drain loop (trivially) or the ShardSet already
	// synchronizes.
	tally := func() (started, completed int64) {
		for i := range count {
			started += count[i].started
			completed += count[i].completed
		}
		return
	}
	done := func() bool {
		started, completed := tally()
		return started == int64(pt.flows) && completed == started
	}
	if n == 1 {
		o.drain(engines[0], deadline, done, pt.onBarrier)
	} else {
		o.drainShards(sft, deadline, done, pt.onBarrier)
	}
	o.recordPerf(engines...)
	if measure != nil {
		measure()
	}

	res := pointResult{engines: n}
	res.started, res.completed = tally()
	for _, eng := range engines {
		res.events += int64(eng.Executed)
		if eng.Now() > res.simTime {
			res.simTime = eng.Now()
		}
	}
	return res
}

// drainChunk is the barrier grid every drain loop stops on.
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

// drainShards is drain for a sharded fabric: bounded-lag windows on the same
// 5 ms barrier grid, barrier at the barriers.
func (o Options) drainShards(sft *topo.ShardedFatTree, deadline sim.Time, done func() bool, barrier func(now sim.Time)) {
	window := sft.Window
	workers := len(sft.Engines)
	switch {
	case o.debugShardWindow > 0:
		// Tripwire mode: an oversized window plus a single worker, so the
		// simdebug lookahead check panics on the calling goroutine.
		window = o.debugShardWindow
		workers = 1
	case o.execPool != nil:
		// Borrow the extra workers' CPU tokens from the pool this point is
		// running under; the point's own slot covers worker zero.
		borrowed := o.execPool.TryAcquire(workers - 1)
		defer o.execPool.Release(borrowed)
		workers = 1 + borrowed
	default:
		if mp := runtime.GOMAXPROCS(0); workers > mp {
			workers = mp
		}
	}
	scratch := make([][]netsim.CrossMsg, len(sft.Engines))
	ss := &sim.ShardSet{
		Engines: sft.Engines,
		Window:  window,
		Merge: func(shard int, windowEnd sim.Time) {
			buf := sft.DrainInbox(shard, scratch[shard][:0])
			netsim.MergeCross(buf, windowEnd)
			scratch[shard] = buf
		},
		// Chunk boundaries are the sharded run's quiescent barriers: worker
		// zero observes every shard idle exactly at the boundary instant.
		Tick: barrier,
	}
	ss.Run(deadline, drainChunk, done, workers)
}
