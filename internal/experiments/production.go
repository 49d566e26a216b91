package experiments

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"flowbender/internal/fluid"
	"flowbender/internal/sim"
	"flowbender/internal/stats"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// Production-mix composition: the fractions and fan-outs of the non-plain
// traffic patterns. Fixed constants (not Options) so a workload name plus a
// seed fully determines the schedule.
const (
	// MixIncastFrac is the fraction of batches that are partition-aggregate
	// responses (MixFanIn workers converging on one aggregator).
	MixIncastFrac = 0.15
	// MixStorageFrac is the fraction of batches that are replicated storage
	// writes (one writer, MixReplicas copies).
	MixStorageFrac = 0.10
	// MixFanIn is the incast width.
	MixFanIn = 8
	// MixReplicas is the storage replication factor.
	MixReplicas = 3
)

// DefaultMixSchemes is the production experiment's comparison set: the
// schemes whose designs explicitly target production flow-size mixes —
// the ECMP baseline, FlowBender, and the two short-flow-aware competitors.
var DefaultMixSchemes = []Scheme{ECMP, FlowBender, RepFlow, DiffFlow}

func (o Options) mixSchemes() []Scheme {
	if len(o.MixSchemes) > 0 {
		return o.MixSchemes
	}
	return DefaultMixSchemes
}

func (o Options) workloadName() string {
	if o.Workload != "" {
		return o.Workload
	}
	return "websearch"
}

func (o Options) load() float64 {
	if o.Load > 0 {
		return o.Load
	}
	return 0.5
}

// newMix builds the production workload generator for one simulation point.
// Everything — the size CDF, the arrival process and its diurnal shape, the
// deadline — is a pure function of (options, topology, flow count), so the
// schedule is byte-identical on every engine and engine count. Endpoints are
// drawn as host indices (no hosts need exist). The returned deadline covers
// the expected makespan with 50% slack plus the usual post-arrival drain
// budget, so it too is deterministic.
func (o Options) newMix(rng *sim.RNG, p topo.Params, cdf workload.CDF, flows int) (*workload.Mix, sim.Time) {
	m := &workload.Mix{
		RNG:         rng,
		NumHosts:    p.NumHosts(),
		CDF:         cdf,
		IncastFrac:  MixIncastFrac,
		StorageFrac: MixStorageFrac,
		FanIn:       MixFanIn,
		Replicas:    MixReplicas,
		MaxFlows:    flows,
	}
	gap := workload.AggregateInterarrival(
		o.load(), p.BisectionBps(), p.InterPodFraction(), m.MeanBatchBytes())
	// Expected flows per batch, hence expected batch count and makespan.
	perBatch := 1*(1-MixIncastFrac-MixStorageFrac) + MixFanIn*MixIncastFrac + MixReplicas*MixStorageFrac
	makespan := sim.Time(float64(gap) * float64(flows) / perBatch)
	switch o.workloadName() {
	case "datamining":
		// The data-mining story is steady background load: plain Poisson.
		m.Arrivals = workload.Poisson{Mean: gap}
	default:
		// The web-search story is a service under diurnal load: one full
		// sinusoidal cycle over the run with a 3x request spike a quarter
		// of the way through, lasting 5% of the run.
		m.Arrivals = workload.Diurnal{
			Mean:      gap,
			Amplitude: 0.3,
			Period:    makespan,
			Spikes: []workload.Spike{
				{At: makespan / 4, Duration: makespan / 20, Factor: 3},
			},
		}
	}
	return m, makespan + makespan/2 + o.maxWait()
}

// mixOutcome aggregates one production point's measurements (or one shard's
// share of them). Unlike runOutcome it holds no per-flow state: every field
// is updated streamingly at completion instants, so memory stays flat at
// million-flow counts. Rendering reads only counts and quantiles — both
// order-independent given the same observation multiset — which is what
// makes the shard-order fold bit-identical to the one-engine run.
type mixOutcome struct {
	fct stats.BinnedSketch

	planned   int64 // flows the schedule holds
	started   int64 // arrival events that ran
	completed int64 // receivers that got their full payload

	kinds [3]int64 // completed flows by workload.PatternKind

	dataPackets int64
	outOfOrder  int64
	timeouts    int64
	retransmits int64
	reroutes    int64

	engines int // engines the point ran on (1 = serial)
}

// record is the per-flow completion accounting. It runs at the completion
// instant — the same virtual time on one engine and on several — so every
// counter it reads has the identical value either way (counters can keep
// moving after completion while retransmits drain, so end-of-run reads
// would not be shard-stable).
func (m *mixOutcome) record(kind workload.PatternKind, f *tcp.Flow) {
	m.kinds[kind]++
	m.fct.Add(f.Size, f.FCT().Seconds())
	m.dataPackets += f.DataPackets()
	m.outOfOrder += f.OutOfOrder()
	m.timeouts += f.Sender().Timeouts
	m.retransmits += f.Sender().Retransmits
	m.reroutes += f.FlowBenderStats().Reroutes
}

// recordFluid is record for a fluid completion: the same streaming
// accounting, minus the packet-only counters (the fluid engine has no
// timeouts, retransmits, or reordering to count).
func (m *mixOutcome) recordFluid(d fluid.Done) {
	m.kinds[workload.PatternKind(d.UserTag)]++
	m.fct.Add(d.Size, d.FCT.Seconds())
	m.reroutes += d.Reroutes
}

// fold merges a shard's outcome into the point total (called in shard-index
// order, once per shard, after the run).
func (m *mixOutcome) fold(o *mixOutcome) {
	for b := range m.fct.Bins {
		m.fct.Bins[b].Merge(&o.fct.Bins[b])
	}
	for k := range m.kinds {
		m.kinds[k] += o.kinds[k]
	}
	m.dataPackets += o.dataPackets
	m.outOfOrder += o.outOfOrder
	m.timeouts += o.timeouts
	m.retransmits += o.retransmits
	m.reroutes += o.reroutes
}

// runProduction executes one (scheme) point of the production experiment.
// Each flow records into its destination shard's private outcome
// (completions on different shards run concurrently); the per-shard outcomes
// fold in shard-index order after the run.
func (o Options) runProduction(scheme Scheme, cdf workload.CDF, flows int) *mixOutcome {
	outs := make([]mixOutcome, max(o.Shards, 1))
	res := o.runPoint(point{
		scheme: scheme,
		flows:  flows,
		workload: func(rng *sim.RNG, p topo.Params) (schedule, sim.Time) {
			return o.newMix(rng, p, cdf, flows)
		},
		onDone:  func(shard int, kind workload.PatternKind, f *tcp.Flow) { outs[shard].record(kind, f) },
		onFluid: func(d fluid.Done) { outs[0].recordFluid(d) },
	})
	out := &outs[0]
	for i := 1; i < res.engines; i++ {
		out.fold(&outs[i])
	}
	out.planned, out.started, out.completed = int64(flows), res.started, res.completed
	out.engines = res.engines
	o.recordFlows(out.completed)
	return out
}

// MixBinCell is one (scheme, size-bin) cell: completed-flow count and FCT
// quantiles in milliseconds.
type MixBinCell struct {
	N      int64
	P50ms  float64
	P99ms  float64
	P999ms float64
}

// MixCell is one scheme's production measurement.
type MixCell struct {
	Started    int64
	Completed  int64
	Incomplete int64 // started but not completed by the deadline
	NotStarted int64 // scheduled arrivals the run never reached

	Plain   int64 // completed flows by pattern kind
	Incast  int64
	Storage int64

	OOOFrac     float64
	Timeouts    int64
	Retransmits int64
	Reroutes    int64

	Bins [stats.NumBins]MixBinCell
	All  MixBinCell
}

func (m *mixOutcome) cell() MixCell {
	c := MixCell{
		Started:     m.started,
		Completed:   m.completed,
		Incomplete:  m.started - m.completed,
		NotStarted:  m.planned - m.started,
		Plain:       m.kinds[workload.KindPlain],
		Incast:      m.kinds[workload.KindIncast],
		Storage:     m.kinds[workload.KindStorage],
		Timeouts:    m.timeouts,
		Retransmits: m.retransmits,
		Reroutes:    m.reroutes,
	}
	if m.dataPackets > 0 {
		c.OOOFrac = float64(m.outOfOrder) / float64(m.dataPackets)
	}
	toCell := func(s *stats.Sketch) MixBinCell {
		return MixBinCell{N: s.N(), P50ms: s.Percentile(50) * 1000, P99ms: s.Percentile(99) * 1000, P999ms: s.Percentile(99.9) * 1000}
	}
	for b := range c.Bins {
		c.Bins[b] = toCell(&m.fct.Bins[b])
	}
	c.All = toCell(m.fct.All())
	return c
}

// ProductionMixResult holds the production-workload comparison.
type ProductionMixResult struct {
	Workload    string
	Load        float64
	Flows       int
	IncastFrac  float64
	StorageFrac float64
	FanIn       int
	Replicas    int

	Schemes []Scheme
	Cells   map[Scheme]MixCell
}

// ProductionMix runs the production-workload experiment: an open-loop mix of
// plain flows, incast jobs, and replicated storage writes, sizes drawn from
// the named empirical CDF, arrivals Poisson (datamining) or diurnal with a
// load spike (websearch), for every scheme in the comparison set. FCTs
// stream into mergeable quantile sketches, so the experiment runs at
// million-flow counts with memory independent of the flow count; at small
// counts the sketches are exact.
func ProductionMix(o Options) *ProductionMixResult {
	cdf, err := workload.NamedCDF(o.workloadName())
	if err != nil {
		panic(err)
	}
	if o.CDF != nil {
		// -cdf overrides the size distribution while the workload name keeps
		// selecting the arrival process; the CI memory-ceiling smoke uses a
		// mice-only CDF to run a genuine million-flow schedule cheaply.
		cdf = o.CDF
	}
	schemes := o.mixSchemes()
	flows := o.flowCount()
	res := &ProductionMixResult{
		Workload:    o.workloadName(),
		Load:        o.load(),
		Flows:       flows,
		IncastFrac:  MixIncastFrac,
		StorageFrac: MixStorageFrac,
		FanIn:       MixFanIn,
		Replicas:    MixReplicas,
		Schemes:     schemes,
		Cells:       make(map[Scheme]MixCell),
	}
	name := func(s Scheme) string {
		return o.pointLabel("production/%s/%s/seed=%d", res.Workload, s, o.Seed)
	}
	outs := fanOut(o, schemes, name, func(oo Options, s Scheme) *mixOutcome {
		return oo.runProduction(s, cdf, flows)
	})
	for i, s := range schemes {
		cell := outs[i].cell()
		res.Cells[s] = cell
		o.logf("production: %s %s completed=%d/%d p50=%sms p99=%sms p99.9=%sms ooo=%.5f%%",
			res.Workload, s, cell.Completed, cell.Started,
			msq(cell.All.P50ms), msq(cell.All.P99ms), msq(cell.All.P999ms), cell.OOOFrac*100)
	}
	return res
}

// msq formats a quantile in ms; empty cells render as a dash.
func msq(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// Print renders the per-size-class quantile table and the per-scheme
// delivery summary.
func (r *ProductionMixResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Production mix (%s): %d flows at %.0f%% bisection load (incast %.0f%% fan-in %d, storage %.0f%% x%d replicas)\n",
		r.Workload, r.Flows, r.Load*100,
		r.IncastFrac*100, r.FanIn, r.StorageFrac*100, r.Replicas)
	fmt.Fprintln(w, "FCT quantiles by size class (ms; streaming sketch, 1% relative accuracy past the exact cap):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tbin\tN\tp50\tp99\tp99.9")
	for _, s := range r.Schemes {
		c := r.Cells[s]
		for b := 0; b < int(stats.NumBins); b++ {
			cell := c.Bins[b]
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\n",
				s, stats.SizeBin(b), cell.N, msq(cell.P50ms), msq(cell.P99ms), msq(cell.P999ms))
		}
		fmt.Fprintf(tw, "%s\tall\t%d\t%s\t%s\t%s\n",
			s, c.All.N, msq(c.All.P50ms), msq(c.All.P99ms), msq(c.All.P999ms))
	}
	tw.Flush()
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tcompleted\tincomplete\tnot started\tplain\tincast\tstorage\tooo\ttimeouts\tretx\treroutes")
	for _, s := range r.Schemes {
		c := r.Cells[s]
		fmt.Fprintf(tw, "%s\t%d/%d\t%d\t%d\t%d\t%d\t%d\t%.5f%%\t%d\t%d\t%d\n",
			s, c.Completed, c.Started, c.Incomplete, c.NotStarted,
			c.Plain, c.Incast, c.Storage, c.OOOFrac*100,
			c.Timeouts, c.Retransmits, c.Reroutes)
	}
	tw.Flush()
}
