package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"flowbender/internal/core"
	"flowbender/internal/fluid"
	"flowbender/internal/sim"
	"flowbender/internal/stats"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// DefaultLoads are the paper's evaluated network loads (Figures 3, 4, 8).
var DefaultLoads = []float64{0.2, 0.4, 0.6}

// AllToAllCell is one (load, scheme, size-bin) cell of Figures 3 and 4:
// latency normalized to ECMP at the same load and bin. With multi-seed
// replication (Options.Seeds), the values are means across seeds and the
// Std fields carry the across-seed standard deviation (each seed is
// normalized against its own ECMP run before aggregating).
type AllToAllCell struct {
	MeanNorm    float64
	P99Norm     float64
	MeanNormStd float64
	P99NormStd  float64
	MeanSec     float64
	P99Sec      float64
	N           int
}

// AllToAllResult holds the all-to-all comparison that Figures 3 and 4 (and
// the out-of-order accounting of §4.2.3) are drawn from.
type AllToAllResult struct {
	Loads   []float64
	Schemes []Scheme
	// Cells[load][scheme][bin].
	Cells map[float64]map[Scheme][stats.NumBins]AllToAllCell
	// OOO[scheme] is the max over loads (and seeds) of the fraction of
	// data packets arriving out of order.
	OOO map[Scheme]float64
	// Reroutes[load] counts FlowBender path changes at that load
	// (averaged across seeds).
	Reroutes map[float64]int64
	// Incomplete flags any flows that failed to finish before maxWait.
	Incomplete int
	// Seeds is the replication count the cells were aggregated over.
	Seeds int
}

// runOutcome aggregates one simulation run's measurements.
type runOutcome struct {
	// Flows holds the packet-engine flows whose arrival the run reached, in
	// arrival order.
	Flows []*tcp.Flow

	// Binned receiver-side flow completion times, in seconds. The sketch
	// stays exact (bit-identical to the historical BinnedSample) below its
	// per-bin cap, which every table-scale run fits; past the cap it
	// collapses to flat-memory streaming quantiles.
	FCT stats.BinnedSketch

	DataPackets int64
	OutOfOrder  int64
	Timeouts    int64
	Retransmits int64
	Reroutes    int64
	Incomplete  int
	SimTime     sim.Time
	// Engines is how many engines the point ran on (1 = serial), Events the
	// engine events they executed between them.
	Engines int
	Events  int64
}

func (r *runOutcome) collect() {
	for _, f := range r.Flows {
		if !f.Done() {
			r.Incomplete++
			continue
		}
		r.FCT.Add(f.Size, f.FCT().Seconds())
		r.DataPackets += f.DataPackets()
		r.OutOfOrder += f.OutOfOrder()
		r.Timeouts += f.Sender().Timeouts
		r.Retransmits += f.Sender().Retransmits
		r.Reroutes += f.FlowBenderStats().Reroutes
	}
}

// OOOFraction returns the fraction of data packets that arrived out of
// order (§4.2.3's metric).
func (r *runOutcome) OOOFraction() float64 {
	if r.DataPackets == 0 {
		return 0
	}
	return float64(r.OutOfOrder) / float64(r.DataPackets)
}

// allToAllSpec parameterizes one all-to-all run.
type allToAllSpec struct {
	scheme Scheme
	fb     core.Config // FlowBender overrides (zero = paper defaults)
	rawFB  bool        // take fb verbatim, without the evaluation defaults
	load   float64
	flows  int // 0 = the scale's default (Options.flowCount)
	// params overrides the Options-derived fat-tree parameters.
	params *topo.Params
	// setupFn, when non-nil, replaces the scheme's standard setup (the
	// degenerate-config differential tests inject edge-case parameters
	// through it). Such runs keep one packet engine whatever Options says.
	setupFn func(rng *sim.RNG) schemeSetup
}

// runAllToAll executes one all-to-all point and returns its measurements,
// read off the flows at the end of the run (the goldens pin that: counters
// can keep moving after a flow completes while retransmits drain). On the
// fluid engine the completion times stream in as flows finish.
func (o Options) runAllToAll(spec allToAllSpec) *runOutcome {
	if spec.flows == 0 {
		spec.flows = o.flowCount()
	}
	out := &runOutcome{}
	pt := point{
		scheme: spec.scheme, fb: spec.fb, rawFB: spec.rawFB, setupFn: spec.setupFn, params: spec.params,
		flows:   spec.flows,
		onFlow:  func(f *tcp.Flow) { out.Flows = append(out.Flows, f) },
		onFluid: func(d fluid.Done) { out.FCT.Add(d.Size, d.FCT.Seconds()) },
	}
	fluidEng := o.fluidPoint(&pt)
	pt.armFirst = fluidEng
	pt.workload = func(root *sim.RNG, p topo.Params) (workload.Schedule, sim.Time) {
		cdf := o.CDF
		if cdf == nil {
			cdf = workload.WebSearchCDF()
		}
		// The packet point runs one arrival past the count, which fires
		// and starts nothing; its goldens and event counts pin that beacon.
		n := spec.flows
		if !fluidEng {
			n++
		}
		return &workload.AllToAll{
			RNG:      root.Fork("workload"),
			NumHosts: p.NumHosts(),
			CDF:      cdf,
			MeanInterarrival: workload.AggregateInterarrival(
				spec.load, p.BisectionBps(), p.InterPodFraction(), cdf.Mean()),
			MaxFlows: n,
		}, o.maxWait()
	}
	res := o.runPoint(pt)
	// On several engines every flow is planned up front; the arrivals the
	// run reached are a prefix of the schedule.
	if int64(len(out.Flows)) > res.started {
		out.Flows = out.Flows[:res.started]
	}
	out.SimTime, out.Engines, out.Events = res.simTime, res.engines, res.events
	out.collect()
	if fluidEng {
		out.Reroutes = res.reroutes
		out.Incomplete = spec.flows - int(res.completed)
	}
	o.recordFlows(res.completed)
	return out
}

// ShardBench runs one ECMP all-to-all point of the given size and discards
// the tables; the benchmarks wall-clock it at different Options.Shards and
// read event counts from o.Perf.
func ShardBench(o Options, load float64, flows int) {
	o.runAllToAll(allToAllSpec{scheme: ECMP, load: load, flows: flows})
}

// a2aPoint is one (load, scheme) point of the sweep.
type a2aPoint struct {
	load   float64
	scheme Scheme
}

func (pt a2aPoint) model() (Scheme, any) { return pt.scheme, pt.load }
func (pt a2aPoint) String() string       { return fmt.Sprintf("load=%g/%s", pt.load, pt.scheme) }

// AllToAll runs the §4.2.2 workload: heavy-tailed flow sizes, Poisson
// arrivals, uniform random all-to-all traffic at each load, for every
// scheme. Every scheme sees the identical flow arrival sequence. The points
// run by load, then scheme, each at every replicate seed; on the fluid
// engine, schemes with identical fluid models share one simulation (see
// runPoints).
func AllToAll(o Options) *AllToAllResult {
	var points []a2aPoint
	for _, load := range DefaultLoads {
		for _, s := range AllSchemes {
			points = append(points, a2aPoint{load: load, scheme: s})
		}
	}
	return o.assembleAllToAll(must(runPoints(o, "alltoall", o.seeds(), points, a2aPoint.String, func(o Options, pt a2aPoint) *runOutcome {
		return o.runAllToAll(allToAllSpec{scheme: pt.scheme, load: pt.load})
	})))
}

// assembleAllToAll builds the figures from the sweep's outcomes, in
// runPoints order.
func (o Options) assembleAllToAll(outs []*runOutcome) *AllToAllResult {
	reps := o.seeds()
	res := &AllToAllResult{
		Loads:    DefaultLoads,
		Schemes:  AllSchemes,
		Cells:    make(map[float64]map[Scheme][stats.NumBins]AllToAllCell),
		OOO:      make(map[Scheme]float64),
		Reroutes: make(map[float64]int64),
		Seeds:    reps,
	}
	ecmpIdx := 0
	for i, s := range res.Schemes {
		if s == ECMP {
			ecmpIdx = i
		}
	}
	idx := func(li, si, rep int) int { return (li*len(res.Schemes)+si)*reps + rep }

	for li, load := range res.Loads {
		for si, s := range res.Schemes {
			var reroutes int64
			for rep := 0; rep < reps; rep++ {
				out := outs[idx(li, si, rep)]
				res.Incomplete += out.Incomplete
				if f := out.OOOFraction(); f > res.OOO[s] {
					res.OOO[s] = f
				}
				reroutes += out.Reroutes
				if o.Log == nil {
					continue // All() merges every bin: build the line only for a reader
				}
				seedTag := ""
				if reps > 1 {
					seedTag = fmt.Sprintf(" seed=%d", o.seedAt(rep))
				}
				all := out.FCT.All()
				o.logf("all-to-all: load=%.0f%% %s%s mean=%.3gms p99=%.3gms ooo=%.5f%% incomplete=%d",
					load*100, s, seedTag, all.Mean()*1000,
					all.Percentile(99)*1000, out.OOOFraction()*100, out.Incomplete)
			}
			if s == FlowBender {
				res.Reroutes[load] = reroutes / int64(reps)
			}
		}
		cells := make(map[Scheme][stats.NumBins]AllToAllCell)
		for si, s := range res.Schemes {
			var row [stats.NumBins]AllToAllCell
			for b := 0; b < int(stats.NumBins); b++ {
				means := make([]float64, 0, reps)
				p99s := make([]float64, 0, reps)
				meanNorms := make([]float64, 0, reps)
				p99Norms := make([]float64, 0, reps)
				n := 0
				for rep := 0; rep < reps; rep++ {
					mine := &outs[idx(li, si, rep)].FCT.Bins[b]
					ref := &outs[idx(li, ecmpIdx, rep)].FCT.Bins[b]
					means = append(means, mine.Mean())
					p99s = append(p99s, mine.Percentile(99))
					meanNorms = append(meanNorms, stats.Ratio(mine.Mean(), ref.Mean()))
					p99Norms = append(p99Norms, stats.Ratio(mine.Percentile(99), ref.Percentile(99)))
					n += int(mine.N())
				}
				mn := stats.Summarize(meanNorms)
				pn := stats.Summarize(p99Norms)
				row[b] = AllToAllCell{
					MeanSec:     stats.Summarize(means).Mean,
					P99Sec:      stats.Summarize(p99s).Mean,
					MeanNorm:    mn.Mean,
					MeanNormStd: mn.Std,
					P99Norm:     pn.Mean,
					P99NormStd:  pn.Std,
					N:           n,
				}
			}
			cells[s] = row
		}
		res.Cells[load] = cells
	}
	return res
}

// Print writes Figure 3 (mean) and Figure 4 (99th percentile) as tables,
// plus the §4.2.3 out-of-order summary.
func (r *AllToAllResult) Print(w io.Writer) {
	r.printFigure(w, "Figure 3: all-to-all MEAN latency normalized to ECMP (lower is better)",
		func(c AllToAllCell) (float64, float64) { return c.MeanNorm, c.MeanNormStd })
	fmt.Fprintln(w)
	r.printFigure(w, "Figure 4: all-to-all 99th-PERCENTILE latency normalized to ECMP (lower is better)",
		func(c AllToAllCell) (float64, float64) { return c.P99Norm, c.P99NormStd })
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Out-of-order data packets (fraction of all data packets, max across loads; §4.2.3):")
	for _, s := range r.Schemes {
		fmt.Fprintf(w, "  %-11s %.5f%%\n", s, r.OOO[s]*100)
	}
}

func (r *AllToAllResult) printFigure(w io.Writer, title string, get func(AllToAllCell) (val, std float64)) {
	fmt.Fprintln(w, title)
	if r.Seeds > 1 {
		fmt.Fprintf(w, "(mean ± stddev over %d seeds)\n", r.Seeds)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "load\tscheme")
	for b := 0; b < int(stats.NumBins); b++ {
		fmt.Fprintf(tw, "\t%s", stats.SizeBin(b))
	}
	fmt.Fprintln(tw)
	for _, load := range r.Loads {
		for _, s := range r.Schemes {
			if s == ECMP {
				continue // the baseline is 1.0 by construction
			}
			fmt.Fprintf(tw, "%.0f%%\t%s", load*100, s)
			cells := r.Cells[load][s]
			for b := 0; b < int(stats.NumBins); b++ {
				v, std := get(cells[b])
				if r.Seeds > 1 {
					fmt.Fprintf(tw, "\t%.2f±%.2f", v, std)
				} else {
					fmt.Fprintf(tw, "\t%.2f", v)
				}
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
}
