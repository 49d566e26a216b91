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

// point is one fat-tree simulation point: everything beyond Options (seed,
// scale, engine, shards) that determines its run. runPoint is the only code
// that executes one, so every scheme — and every execution mode of a scheme
// — sees the identical substrate and arrival sequence by construction.
type point struct {
	scheme Scheme
	fb     core.Config // FlowBender overrides (zero = paper defaults)
	rawFB  bool        // take fb verbatim, without the evaluation defaults
	// setupFn, when non-nil, replaces the scheme's standard setup (the
	// degenerate-config differential tests and the ablations' validation
	// scenario inject exact configurations through it). Such points always
	// run on one packet engine.
	setupFn func(rng *sim.RNG) schemeSetup
	// params overrides the Options-derived fat-tree parameters.
	params *topo.Params

	// flows is the number of flows the schedule plans; the point is done
	// when that many have started and every started flow has completed.
	flows int
	// workload draws the arrival schedule from the point's workload stream
	// (independent of the scheme stream, so every scheme sees the identical
	// arrivals) and names the virtual-time deadline. Endpoints are host
	// indices; flow i of the schedule runs under ID idBase+i+1.
	workload func(rng *sim.RNG, p topo.Params) (schedule, sim.Time)
	idBase   netsim.FlowID
	// burst starts the whole schedule synchronously at setup instead of
	// through the beacon chain (Table 1's simultaneous flows).
	burst bool
	// armFirst selects the beacon order the fluid all-to-all point is pinned
	// to (see chain).
	armFirst bool

	// onFlow receives every packet-engine flow when it is created: at its
	// start on one engine, at planning time — before the run — on several.
	onFlow func(f *tcp.Flow)
	// onDone runs at a packet flow's completion instant, on the engine of
	// the destination host; calls for different shards run concurrently.
	onDone func(shard int, kind workload.PatternKind, f *tcp.Flow)
	// onFluid receives every fluid-engine completion (required: a point
	// without a setupFn may be asked to run on the fluid engine).
	onFluid func(d fluid.Done)
}

// pointResult is what runPoint itself measured.
type pointResult struct {
	engines            int // engines the point ran on (1 = serial)
	started, completed int64
	simTime            sim.Time // furthest virtual time any engine reached
	reroutes           int64    // fluid engine only: path changes, all flows
}

// schedule yields a point's arrivals in time order, one batch per call and
// nil when exhausted — workload.Mix's pull contract, which keeps a
// million-flow production point from ever holding its whole schedule.
type schedule interface {
	NextBatch() []workload.FlowSpec
}

// batchOnce is a fully drawn schedule, served as a single batch.
type batchOnce []workload.FlowSpec

func (b *batchOnce) NextBatch() []workload.FlowSpec {
	out := *b
	*b = nil
	return out
}

// drainSchedule flattens a schedule expected to hold about n arrivals.
func drainSchedule(src schedule, n int) []workload.FlowSpec {
	out := make([]workload.FlowSpec, 0, n)
	for b := src.NextBatch(); b != nil; b = src.NextBatch() {
		out = append(out, b...)
	}
	return out
}

// chain replays a schedule on one engine: beacon i fires at arrival i's
// instant, calls start(i, arrival) and arms beacon i+1, so the engine never
// holds more than one pending arrival however long the schedule is. The
// first arrival is handled synchronously, mirroring a live generator's Run()
// at time zero, and each beacon is armed after its predecessor's flow has
// started — receiver, sender, next arrival is the event-insertion order
// same-instant tie-breaking keys on, identical on one engine and on every
// shard of several.
//
// armFirst is the fluid all-to-all order: every beacon, the first included,
// is an event, armed before its predecessor's flow arrives so a same-instant
// burst still folds into one solver commit. Which order a point uses is
// pinned by its goldens and executed-event counts, not a free choice.
func chain(eng *sim.Engine, src schedule, armFirst bool, start func(i int, s workload.FlowSpec)) {
	batch := src.NextBatch()
	i := 0
	var beacon func()
	arm := func() {
		if len(batch) > 0 {
			eng.At(batch[0].At, beacon)
		}
	}
	beacon = func() {
		s := batch[0]
		if batch = batch[1:]; len(batch) == 0 {
			batch = src.NextBatch()
		}
		if armFirst {
			arm()
		}
		start(i, s)
		i++
		if !armFirst {
			arm()
		}
	}
	if armFirst {
		arm()
	} else if len(batch) > 0 {
		beacon()
	}
}

// fluidPoint reports whether a point runs on the fluid engine: Options.Engine
// asks for it and the setup is the scheme's own (an injected packet setup has
// no fluid form, so such points keep the packet engine).
func (o Options) fluidPoint(setupFn func(*sim.RNG) schemeSetup) bool {
	return o.Engine == EngineFluid && setupFn == nil
}

// shardPlan decides how many engines a packet point runs on, and is the
// single home of every "can this point shard?" guard. A point splits across
// Options.Shards conservatively synchronized engines only when that is both
// safe and bit-identical to one engine; otherwise it runs serial:
//
//   - Shards <= 1: nothing to split. (The fluid engine never gets here: one
//     fluid point is orders of magnitude cheaper than its packet twin, so it
//     always runs on one engine.)
//   - a non-shardable scheme (see Scheme.shardable): FlowBender, RPS, and
//     DiffFlow draw from per-scheme RNG streams at packet-send/selection
//     time — splitting consumers across shards would reorder those draws;
//     RepFlow plans replica sub-flows at the host while the sharded replay
//     pre-plans exactly one flow per arrival; DeTail needs PFC (below).
//   - an injected setupFn: its semantics are unknown here.
//   - a setup-time burst: there is no arrival schedule to replay.
//   - PFC configured: pause/unpause is synchronous fabric back-pressure
//     with zero slack, so the cross-shard lookahead would be zero.
//   - the partition has no cross-shard cable (it degenerated to one shard)
//     or no positive lookahead (zero-delay cross-shard paths).
func (o Options) shardPlan(pt *point, p topo.Params, set schemeSetup) (topo.Partition, int) {
	if o.Shards <= 1 || !pt.scheme.shardable() || pt.setupFn != nil || pt.burst || set.pfc != nil {
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
	src, deadline := pt.workload(root.Fork("workload"), p)

	// Decide the engine set. The fluid engine always runs on one engine;
	// a packet point asks shardPlan.
	fluidEng := o.fluidPoint(pt.setupFn)
	var set schemeSetup
	var part topo.Partition
	n := 1
	if !fluidEng {
		if pt.setupFn != nil {
			set = pt.setupFn(schemeRNG)
		} else {
			set = pt.scheme.setupRaw(schemeRNG, pt.fb, pt.rawFB)
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

	// inject feeds the schedule to a one-engine point. A schedule may run
	// one arrival past the planned count: the beacon fires and starts
	// nothing, like the live generator's arrival after its last flow.
	inject := func(start func(id netsim.FlowID, s workload.FlowSpec)) {
		one := func(i int, s workload.FlowSpec) {
			if i == pt.flows {
				return
			}
			count[0].started++
			start(pt.idBase+netsim.FlowID(i+1), s)
		}
		if pt.burst {
			for i, s := range drainSchedule(src, pt.flows) {
				one(i, s)
			}
			return
		}
		chain(engines[0], src, pt.armFirst, one)
	}
	// track wires a packet flow into the completion counter of the shard
	// that will observe its completion, and into the point's recorder.
	track := func(shard int, kind workload.PatternKind, f *tcp.Flow) {
		if pt.onFlow != nil {
			pt.onFlow(f)
		}
		c := &count[shard]
		f.OnComplete = func(f *tcp.Flow) {
			c.completed++
			if pt.onDone != nil {
				pt.onDone(shard, kind, f)
			}
		}
	}

	var fs *fluid.Sim
	var sft *topo.ShardedFatTree
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
		inject(func(id netsim.FlowID, s workload.FlowSpec) {
			track(0, s.Kind, tcp.StartFlow(engines[0], set.cfg, id, ft.Hosts[s.SrcIdx], ft.Hosts[s.DstIdx], s.Size))
		})
	default:
		// Several engines: plan every flow up front — O(flows) memory; the
		// flat-memory guarantee belongs to the one-engine chain — and replay
		// the schedule through one chain per shard. Each beacon starts the
		// receiver if the destination is shard-local, then the sender if the
		// source is; shards hosting neither endpoint pay one no-op event per
		// flow, a rounding error next to the packet traffic.
		sft = topo.NewShardedFatTree(engines, p, part)
		sft.SetSelector(set.sel)
		plan := drainSchedule(src, pt.flows)
		if len(plan) > pt.flows {
			plan = plan[:pt.flows]
		}
		pend := make([]*tcp.PendingFlow, len(plan))
		for i, s := range plan {
			pend[i] = tcp.PlanFlow(set.cfg, pt.idBase+netsim.FlowID(i+1), sft.Hosts[s.SrcIdx], sft.Hosts[s.DstIdx], s.Size)
			track(part.HostShard[s.DstIdx], s.Kind, pend[i].Flow())
		}
		for sh := range engines {
			sh, replay := sh, batchOnce(plan)
			chain(engines[sh], &replay, false, func(i int, s workload.FlowSpec) {
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
		o.drain(engines[0], deadline, done)
	} else {
		o.drainShards(sft, deadline, done)
	}
	o.recordPerf(engines...)

	res := pointResult{engines: n}
	res.started, res.completed = tally()
	for _, eng := range engines {
		if eng.Now() > res.simTime {
			res.simTime = eng.Now()
		}
	}
	if fs != nil {
		res.reroutes = fs.Reroutes
	}
	return res
}

// drainShards is drain for a sharded fabric: bounded-lag windows on the same
// 5 ms barrier grid, checkpoint ticks at the barriers.
func (o Options) drainShards(sft *topo.ShardedFatTree, deadline sim.Time, done func() bool) {
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
	}
	if ck := o.ckptTracker(); ck != nil {
		// Chunk boundaries are the sharded run's quiescent barriers: worker
		// zero observes every shard idle exactly at the boundary instant, the
		// same grid a resumed run will pass through (the descriptor pins the
		// shard count, so the window — and with it the grid — reproduces).
		ss.Tick = func(boundary sim.Time) { ck.tick(boundary, sft.Engines...) }
	}
	ss.Run(deadline, drainChunk, done, workers)
}
