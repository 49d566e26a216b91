package main

import (
	"runtime"
	"time"

	"flowbender/internal/core"
	"flowbender/internal/experiments"
	"flowbender/internal/fluid"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/stats"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// mirrorSpec names the simulation points a workload's traced pass rebuilds
// from the layers' public constructors: the workload's own experiment at
// its highest load, one point per scheme.
type mirrorSpec struct {
	engine experiments.EngineKind
	scale  experiments.ScaleLevel
	mix    bool // ProductionMix points; otherwise all-to-all points
	load   float64
	flows  int
	// schemes are mirrored in order: the two the paper is about on the
	// packet all-to-all, where every scheme costs about the same, and the
	// production mix's comparison set wherever the cost depends on the
	// scheme (the fluid engine's spraying and replicating ones dominate).
	schemes []experiments.Scheme
}

// mirrorCounts are the public counters of one mirrored point, read after it
// drained. The packet-only fields stay zero on a fluid point and the other
// way round: a layer that did no work reports none.
type mirrorCounts struct {
	wall       time.Duration
	events     uint64
	flows      int64 // completed
	incomplete int64 // started but not completed, or never started

	hops, enqueued, drops, marked int64
	maxQueueBytes                 int

	dataPackets, retransmits, timeouts, outOfOrder int64

	fb core.Stats

	peakActive    int
	collapsedBins int
}

func (c *mirrorCounts) add(o mirrorCounts) {
	c.wall += o.wall
	c.events += o.events
	c.flows += o.flows
	c.incomplete += o.incomplete
	c.hops += o.hops
	c.enqueued += o.enqueued
	c.drops += o.drops
	c.marked += o.marked
	if o.maxQueueBytes > c.maxQueueBytes {
		c.maxQueueBytes = o.maxQueueBytes
	}
	c.dataPackets += o.dataPackets
	c.retransmits += o.retransmits
	c.timeouts += o.timeouts
	c.outOfOrder += o.outOfOrder
	c.fb.Epochs += o.fb.Epochs
	c.fb.CongestedEpochs += o.fb.CongestedEpochs
	c.fb.Reroutes += o.fb.Reroutes
	c.fb.SuppressedByGap += o.fb.SuppressedByGap
	if o.peakActive > c.peakActive {
		c.peakActive = o.peakActive
	}
	c.collapsedBins += o.collapsedBins
}

func scaleParams(s experiments.ScaleLevel) topo.Params {
	switch s {
	case experiments.ScaleTiny:
		return topo.TinyScale()
	case experiments.ScalePaper:
		return topo.PaperScale()
	case experiments.ScaleHyper:
		return topo.HyperScale()
	}
	return topo.SmallScale()
}

// flowBenderConfig is the evaluation's FlowBender set-up (the harness'
// Scheme.setup): paper defaults plus the stability gap and randomised N,
// drawing from the "flowbender" fork of the scheme stream.
func flowBenderConfig(schemeRNG *sim.RNG) *core.Config {
	return &core.Config{
		RNG:         schemeRNG.Fork("flowbender"),
		MinEpochGap: experiments.StabilityGap,
		DesyncN:     true,
	}
}

// packetScheme is the harness' Scheme.setup for the mirrored schemes: the
// transport configuration and the switch selector.
func packetScheme(scheme experiments.Scheme, schemeRNG *sim.RNG) (tcp.Config, netsim.Selector) {
	cfg := tcp.DefaultConfig()
	var sel netsim.Selector = routing.ECMP{}
	switch scheme {
	case experiments.ECMP:
	case experiments.FlowBender:
		cfg.FlowBender = flowBenderConfig(schemeRNG)
	case experiments.RepFlow:
		cfg.Replicate = &tcp.ReplicateConfig{Cutoff: experiments.RepFlowCutoff}
	case experiments.DiffFlow:
		sel = &routing.DiffFlow{RNG: schemeRNG.Fork("rps")}
		cfg.SprayShortCutoff = experiments.DiffFlowCutoff
	default:
		panic("bench: scheme " + scheme.String() + " has no mirror")
	}
	return cfg, sel
}

// fluidScheme is the harness' fluidConfig for the mirrored schemes.
func fluidScheme(scheme experiments.Scheme, p topo.Params, schemeRNG *sim.RNG) fluid.Config {
	cfg := fluid.Config{Params: p, SolverShards: 1}
	switch scheme {
	case experiments.ECMP:
	case experiments.FlowBender:
		cfg.FlowBender = flowBenderConfig(schemeRNG)
	case experiments.RepFlow:
		cfg.Replicate = true
		cfg.ShortCutoff = experiments.RepFlowCutoff
	case experiments.DiffFlow:
		cfg.Spray = true
		cfg.ShortCutoff = experiments.DiffFlowCutoff
	default:
		panic("bench: scheme " + scheme.String() + " has no mirror")
	}
	return cfg
}

// drainMirror advances the engine on the harness' 5 ms grid until done or
// the deadline, with the run chunks and the predicate each in a span.
func drainMirror(tr *tracer, eng *sim.Engine, deadline sim.Time, done func() bool, atEdge func()) {
	const chunk = 5 * sim.Millisecond
	check := func() bool {
		tr.begin("experiments.drain_check")
		d := done()
		tr.end()
		return d
	}
	for eng.Now() < deadline && !check() {
		next := eng.Now() + chunk
		if next > deadline {
			next = deadline
		}
		tr.begin("sim.run")
		eng.Run(next)
		tr.end()
		if atEdge != nil {
			atEdge()
		}
		if eng.Pending() == 0 {
			return
		}
	}
}

// mixGenerator rebuilds the harness' production workload: the fixed pattern
// fractions, the web-search sizes, and diurnal arrivals with one 3x spike.
func mixGenerator(rng *sim.RNG, hosts []*netsim.Host, p topo.Params, load float64, flows int) (*workload.Mix, sim.Time) {
	m := &workload.Mix{
		RNG:         rng,
		Hosts:       hosts,
		NumHosts:    p.NumHosts(),
		CDF:         workload.WebSearchCDF(),
		IncastFrac:  experiments.MixIncastFrac,
		StorageFrac: experiments.MixStorageFrac,
		FanIn:       experiments.MixFanIn,
		Replicas:    experiments.MixReplicas,
		MaxFlows:    flows,
	}
	gap := workload.AggregateInterarrival(load, p.BisectionBps(), p.InterPodFraction(), m.MeanBatchBytes())
	perBatch := 1*(1-experiments.MixIncastFrac-experiments.MixStorageFrac) +
		experiments.MixFanIn*experiments.MixIncastFrac + experiments.MixReplicas*experiments.MixStorageFrac
	makespan := sim.Time(float64(gap) * float64(flows) / perBatch)
	m.Arrivals = workload.Diurnal{
		Mean:      gap,
		Amplitude: 0.3,
		Period:    makespan,
		Spikes:    []workload.Spike{{At: makespan / 4, Duration: makespan / 20, Factor: 3}},
	}
	return m, makespan + makespan/2 + 10*sim.Second
}

// replayMix injects the mix the way both harness engines do: batches are
// pulled lazily, exactly one flow starts per beacon event, and the next
// beacon is scheduled from inside it; the first arrival, at time zero, is
// handled at once. The returned function reports how many flows have been
// started and whether that is all of them.
func replayMix(tr *tracer, eng *sim.Engine, mix *workload.Mix, start func(id int64, s workload.FlowSpec)) func() (started int64, all bool) {
	nextBatch := func() []workload.FlowSpec {
		tr.begin("workload.draw")
		b := mix.NextBatch()
		tr.end()
		return b
	}
	var started int64
	var pending []workload.FlowSpec
	var beacon func()
	beacon = func() {
		s := pending[0]
		pending = pending[1:]
		started++
		start(started, s)
		if len(pending) == 0 {
			pending = nextBatch()
		}
		if len(pending) > 0 {
			eng.At(pending[0].At, beacon)
		}
	}
	pending = nextBatch()
	if len(pending) > 0 {
		beacon()
	}
	return func() (int64, bool) { return started, mix.Done() && len(pending) == 0 }
}

func a2aInterarrival(p topo.Params, load float64) sim.Time {
	return workload.AggregateInterarrival(load, p.BisectionBps(), p.InterPodFraction(), workload.WebSearchCDF().Mean())
}

// runMirror simulates one scheme's point of spec with the RNG fork order of
// the harness, so that for the same seed it executes the same events.
func runMirror(tr *tracer, spec mirrorSpec, seed int64, scheme experiments.Scheme) mirrorCounts {
	runtime.GC() // as before a harness pass, so the two compare
	tr.newPoint()
	t0 := time.Now()
	tr.begin("point")
	var c mirrorCounts
	switch {
	case spec.engine == experiments.EngineFluid:
		c = mirrorFluid(tr, spec, seed, scheme)
	case spec.mix:
		c = mirrorPacketMix(tr, spec, seed, scheme)
	default:
		c = mirrorPacketA2A(tr, spec, seed, scheme)
	}
	tr.end()
	c.wall = time.Since(t0)
	return c
}

func buildFabric(tr *tracer, eng *sim.Engine, p topo.Params, schemeRNG *sim.RNG, scheme experiments.Scheme) (*topo.FatTree, tcp.Config) {
	cfg, sel := packetScheme(scheme, schemeRNG)
	tr.begin("topo.build")
	ft := topo.NewFatTree(eng, p)
	ft.SetSelector(sel)
	tr.end()
	return ft, cfg
}

// fabricCounts reads the forwarding counters of every switch.
func (c *mirrorCounts) fabricCounts(ft *topo.FatTree) {
	for _, sw := range ft.AllSwitches() {
		c.hops += sw.RxPackets
		for _, port := range sw.Ports {
			c.enqueued += port.Q.Enqueued
			c.drops += port.Q.Dropped
			c.marked += port.Q.Marked
			if port.Q.MaxBytes > c.maxQueueBytes {
				c.maxQueueBytes = port.Q.MaxBytes
			}
		}
	}
}

// flowCounts folds one completed flow's transport and controller counters.
func (c *mirrorCounts) flowCounts(f *tcp.Flow) {
	c.flows++
	c.dataPackets += f.DataPackets()
	c.outOfOrder += f.OutOfOrder()
	c.timeouts += f.Sender().Timeouts
	c.retransmits += f.Sender().Retransmits
	fb := f.FlowBenderStats()
	c.fb.Epochs += fb.Epochs
	c.fb.CongestedEpochs += fb.CongestedEpochs
	c.fb.Reroutes += fb.Reroutes
	c.fb.SuppressedByGap += fb.SuppressedByGap
}

func collapsed(b *stats.BinnedSketch) int {
	n := 0
	for i := range b.Bins {
		if b.Bins[i].Collapsed() {
			n++
		}
	}
	return n
}

// mirrorPacketA2A mirrors the harness' serial all-to-all point. The live
// generator there schedules one more arrival after the last flow, which
// fires and returns; drawing one arrival past the count reproduces that
// event at its instant.
func mirrorPacketA2A(tr *tracer, spec mirrorSpec, seed int64, scheme experiments.Scheme) mirrorCounts {
	var c mirrorCounts
	eng := sim.NewEngine()
	root := sim.NewRNG(seed)
	p := scaleParams(spec.scale)
	ft, cfg := buildFabric(tr, eng, p, root.Fork("scheme"), scheme)

	gen := &workload.AllToAll{
		RNG:              root.Fork("workload"),
		Hosts:            ft.Hosts,
		CDF:              workload.WebSearchCDF(),
		MeanInterarrival: a2aInterarrival(p, spec.load),
	}
	tr.begin("workload.draw")
	arrivals := gen.Predraw(spec.flows + 1)
	tr.end()

	flows := make([]*tcp.Flow, 0, spec.flows)
	next := 0
	var beacon func()
	beacon = func() {
		a := arrivals[next]
		next++
		if next > spec.flows {
			return
		}
		tr.begin("tcp.start")
		f := tcp.StartFlow(eng, cfg, netsim.FlowID(next), a.Src, a.Dst, a.Size)
		tr.end()
		flows = append(flows, f)
		eng.At(arrivals[next].At, beacon)
	}
	beacon()

	done := func() bool {
		if len(flows) < spec.flows {
			return false
		}
		for _, f := range flows {
			if !f.Done() {
				return false
			}
		}
		return true
	}
	drainMirror(tr, eng, 10*sim.Second, done, nil)

	var fct stats.BinnedSketch
	tr.begin("stats.record")
	for _, f := range flows {
		if !f.Done() {
			continue
		}
		fct.Add(f.Size, f.FCT().Seconds())
		c.flowCounts(f)
	}
	tr.end()
	c.incomplete = int64(spec.flows) - c.flows
	c.collapsedBins = collapsed(&fct)
	c.fabricCounts(ft)
	c.events = eng.Executed
	return c
}

// mirrorPacketMix mirrors the harness' serial production point: batches are
// pulled lazily, one flow starts per beacon, and completions are accounted
// from OnComplete while the flow is still warm.
func mirrorPacketMix(tr *tracer, spec mirrorSpec, seed int64, scheme experiments.Scheme) mirrorCounts {
	var c mirrorCounts
	eng := sim.NewEngine()
	root := sim.NewRNG(seed)
	p := scaleParams(spec.scale)
	ft, cfg := buildFabric(tr, eng, p, root.Fork("scheme"), scheme)
	mix, deadline := mixGenerator(root.Fork("workload"), ft.Hosts, p, spec.load, spec.flows)

	var fct stats.BinnedSketch
	injected := replayMix(tr, eng, mix, func(id int64, fs workload.FlowSpec) {
		tr.begin("tcp.start")
		f := tcp.StartFlow(eng, cfg, netsim.FlowID(id), fs.Src, fs.Dst, fs.Size)
		tr.end()
		f.OnComplete = func(f *tcp.Flow) {
			tr.begin("stats.record")
			fct.Add(f.Size, f.FCT().Seconds())
			c.flowCounts(f)
			tr.end()
		}
	})
	done := func() bool {
		started, all := injected()
		return all && c.flows == started
	}
	drainMirror(tr, eng, deadline, done, nil)

	c.incomplete = int64(spec.flows) - c.flows
	c.collapsedBins = collapsed(&fct)
	c.fabricCounts(ft)
	c.events = eng.Executed
	return c
}

// mirrorFluid mirrors the harness' fluid points (all-to-all and production):
// the same index-drawn schedule fed to fluid.Sim through a beacon chain
// that arms the next arrival before delivering the current one.
func mirrorFluid(tr *tracer, spec mirrorSpec, seed int64, scheme experiments.Scheme) mirrorCounts {
	var c mirrorCounts
	eng := sim.NewEngine()
	root := sim.NewRNG(seed)
	p := scaleParams(spec.scale)
	cfg := fluidScheme(scheme, p, root.Fork("scheme"))
	tr.begin("fluid.net_build")
	fs := fluid.NewSim(eng, cfg)
	tr.end()

	var fct stats.BinnedSketch
	fs.OnDone = func(d fluid.Done) {
		tr.begin("stats.record")
		fct.Add(d.Size, d.FCT.Seconds())
		tr.end()
	}
	arrive := func(id int64, src, dst int32, size int64, tag int32) {
		tr.begin("fluid.arrive")
		fs.Arrive(netsim.FlowID(id), src, dst, size, tag)
		tr.end()
	}
	atEdge := func() {
		if n := fs.ActiveFlows(); n > c.peakActive {
			c.peakActive = n
		}
	}

	if spec.mix {
		mix, deadline := mixGenerator(root.Fork("workload"), nil, p, spec.load, spec.flows)
		injected := replayMix(tr, eng, mix, func(id int64, s workload.FlowSpec) {
			arrive(id, s.SrcIdx, s.DstIdx, s.Size, int32(s.Kind))
		})
		done := func() bool {
			started, all := injected()
			return all && fs.Completed == started
		}
		drainMirror(tr, eng, deadline, done, atEdge)
	} else {
		gen := &workload.AllToAll{
			RNG:              root.Fork("workload"),
			NumHosts:         p.NumHosts(),
			CDF:              workload.WebSearchCDF(),
			MeanInterarrival: a2aInterarrival(p, spec.load),
		}
		tr.begin("workload.draw")
		arrivals := gen.PredrawIdx(spec.flows)
		tr.end()
		idx := 0
		var beacon func()
		beacon = func() {
			j := idx
			idx++
			if idx < len(arrivals) {
				eng.At(arrivals[idx].At, beacon)
			}
			a := arrivals[j]
			arrive(int64(j+1), a.Src, a.Dst, a.Size, 0)
		}
		if len(arrivals) > 0 {
			eng.At(arrivals[0].At, beacon)
		}
		total := int64(len(arrivals))
		drainMirror(tr, eng, 10*sim.Second, func() bool { return fs.Completed == total }, atEdge)
	}

	c.flows = fs.Completed
	c.incomplete = int64(spec.flows) - fs.Completed
	c.fb.Reroutes = fs.Reroutes
	c.collapsedBins = collapsed(&fct)
	c.events = eng.Executed
	return c
}

// harnessPoint runs one scheme's point of spec through the experiment
// harness' single-point entry and returns its wall time and event count —
// the reference the mirror's event count must equal. The all-to-all entry,
// ShardBench, runs ECMP only.
func harnessPoint(spec mirrorSpec, seed int64, scheme experiments.Scheme) (time.Duration, int64) {
	perf := &experiments.PerfStats{}
	o := experiments.Options{
		Seed: seed, Scale: spec.scale, Engine: spec.engine,
		Parallelism: 1, Shards: 1, SolverShards: 1, Perf: perf,
	}
	runtime.GC()
	t0 := time.Now()
	if spec.mix {
		o.FlowCount = spec.flows
		o.Load = spec.load
		o.MixSchemes = []experiments.Scheme{scheme}
		experiments.ProductionMix(o)
	} else {
		experiments.ShardBench(o, spec.load, spec.flows)
	}
	return time.Since(t0), perf.Events.Load()
}
