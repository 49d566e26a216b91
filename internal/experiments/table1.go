package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"flowbender/internal/fluid"
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
	"flowbender/internal/stats"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// Table1Row is one row of the paper's Table 1: mean and max completion time
// (ms) of k simultaneous equal-size ToR-to-ToR flows, for every scheme in
// Table1Result.Schemes. The per-scheme slices are indexed in parallel with
// Schemes; the values are means over the run's replicate seeds, and
// MeanStdMs carries the across-seed standard deviation of the per-seed
// means.
type Table1Row struct {
	Flows       int
	IdealMs     float64 // k/P * size / rate: perfect balance, instant convergence
	MeanMs      []float64
	MaxMs       []float64
	MeanStdMs   []float64
	MaxOverMean []float64
}

// Table1Result reproduces Table 1 (§4.2.1, functionality validation),
// extended from the paper's two columns to the full comparison set.
type Table1Result struct {
	FlowBytes int64
	Paths     int
	Schemes   []Scheme
	Rows      []Table1Row
	// Seeds is non-zero when Options.Seeds requested explicit multi-seed
	// replication; Print then renders mean ± stddev.
	Seeds int
}

// Table1 runs the validation microbenchmark: k ∈ FlowCounts simultaneous
// flows of FlowBytes each from the hosts of one ToR in pod 0 to the hosts of
// one ToR in pod 1. The paper uses 250 MB flows; the scaled default is
// 25 MB (one decade smaller, preserving many-RTT flows and the flows-per-
// path ratios 1, 2, 3 x paths).
func Table1(o Options) *Table1Result {
	name := func(pt t1Point) string {
		return o.pointLabel("table1/k=%d/%s/seed=%d", pt.k, pt.scheme, o.seedAt(pt.rep))
	}
	return o.assembleTable1(sweep(o, "table1", o.t1Points(), name, Options.runT1Point))
}

// t1Point is one (k, scheme, seed) point of the Table 1 sweep, t1Out its
// measurement.
type t1Point struct {
	k      int
	scheme Scheme
	rep    int
}

func (pt t1Point) model() (Scheme, any) {
	return pt.scheme, t1Point{k: pt.k, rep: pt.rep}
}

type t1Out struct{ meanMs, maxMs float64 }

// t1FlowBytes is the flow size: the paper uses 250 MB flows; reduced scales
// use 50 MB (still thousands of RTTs per flow, so rerouting has room to
// converge).
func (o Options) t1FlowBytes() int64 {
	switch o.Scale {
	case ScalePaper:
		return 250_000_000
	case ScaleTiny:
		return 25_000_000
	}
	return 50_000_000
}

// t1Counts are the flow counts k: one, two and three flows per path.
func (o Options) t1Counts() []int {
	paths := o.params().PathsBetweenPods()
	return []int{1 * paths, 2 * paths, 3 * paths}
}

// t1Points lists the sweep in table order: by k, then scheme, then replicate
// seed. Micro-benchmarks with a handful of flows are dominated by the luck
// of the hash draw, so the mean and max are averaged over several seeds
// below paper scale; every (k, scheme, seed) triple is an isolated simulation.
func (o Options) t1Points() []t1Point {
	var points []t1Point
	for _, k := range o.t1Counts() {
		for _, scheme := range AllSchemes {
			for r := 0; r < o.repeats(); r++ {
				points = append(points, t1Point{k: k, scheme: scheme, rep: r})
			}
		}
	}
	return points
}

// runT1Point simulates one point of the sweep.
func (o Options) runT1Point(pt t1Point) t1Out {
	o.Seed = o.seedAt(pt.rep)
	m, x := o.runValidation(pt.scheme, nil, pt.k, o.t1FlowBytes())
	return t1Out{meanMs: m, maxMs: x}
}

// assembleTable1 builds the table from the sweep's outcomes, in t1Points
// order.
func (o Options) assembleTable1(outs []t1Out) *Table1Result {
	p := o.params()
	paths := p.PathsBetweenPods()
	size, counts, reps, schemes := o.t1FlowBytes(), o.t1Counts(), o.repeats(), AllSchemes
	idx := func(ki, si, rep int) int { return (ki*len(schemes)+si)*reps + rep }

	res := &Table1Result{FlowBytes: size, Paths: paths, Schemes: schemes, Seeds: o.Seeds}
	for ki, k := range counts {
		row := Table1Row{
			Flows:       k,
			MeanMs:      make([]float64, len(schemes)),
			MaxMs:       make([]float64, len(schemes)),
			MeanStdMs:   make([]float64, len(schemes)),
			MaxOverMean: make([]float64, len(schemes)),
		}
		row.IdealMs = float64(k) / float64(paths) * float64(size) * 8 / float64(p.LinkRateBps) * 1000
		for si, scheme := range schemes {
			means := make([]float64, reps)
			var mean, max float64
			for r := 0; r < reps; r++ {
				out := outs[idx(ki, si, r)]
				means[r] = out.meanMs
				mean += out.meanMs / float64(reps)
				max += out.maxMs / float64(reps)
			}
			row.MeanMs[si] = mean
			row.MaxMs[si] = max
			row.MeanStdMs[si] = stats.Summarize(means).Std
			row.MaxOverMean[si] = max / mean
			o.logf("table1: %s k=%d mean=%.1fms max=%.1fms", scheme, k, mean, max)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// runValidation runs the ToR-to-ToR microbenchmark: k simultaneous equal
// flows from the hosts of ToR 0 / pod 0 to the hosts of ToR 0 / pod 1, flow i
// between the i-th servers (mod the ToR size) of the two. The flow IDs — and
// with them the port draws feeding the ECMP hashes, so the hash-collision
// luck being measured — vary with the seed and are shared by both engines.
// setupFn, when non-nil, replaces the scheme's standard setup (the ablation
// experiment passes raw FlowBender configs).
func (o Options) runValidation(scheme Scheme, setupFn func(*sim.RNG) schemeSetup, k int, size int64) (meanMs, maxMs float64) {
	var fct stats.Sketch
	var flows []*tcp.Flow
	o.runPoint(point{
		scheme:  scheme,
		setupFn: setupFn,
		flows:   k,
		burst:   true,
		idBase:  netsim.FlowID(o.Seed * 131),
		workload: func(_ *sim.RNG, p topo.Params) (schedule, sim.Time) {
			// Host index (pod, tor, srv) = (pod*Tors+tor)*Servers+srv.
			specs := make(batchOnce, k)
			for i := range specs {
				srv := int32(i % p.ServersPerTor)
				specs[i] = workload.FlowSpec{SrcIdx: srv, DstIdx: int32(p.TorsPerPod*p.ServersPerTor) + srv, Size: size}
			}
			return &specs, 60 * sim.Second
		},
		onFlow:  func(f *tcp.Flow) { flows = append(flows, f) },
		onFluid: func(d fluid.Done) { fct.Add(d.FCT.Seconds() * 1000) },
	})
	for _, f := range flows {
		if f.Done() {
			fct.Add(f.FCT().Seconds() * 1000)
		}
	}
	return fct.Mean(), fct.Max()
}

// Print writes the table in the paper's layout, one line per (k, scheme)
// pair — the paper's two columns widened to the full comparison set.
func (r *Table1Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 1: flow completion times, %d MB ToR-to-ToR flows, %d paths\n",
		r.FlowBytes/1_000_000, r.Paths)
	if r.Seeds > 1 {
		fmt.Fprintf(w, "(means ± stddev over %d seeds)\n", r.Seeds)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Flows\tscheme\tmean (ms)\tmax (ms)\tmax/mean\tideal (ms)")
	for _, row := range r.Rows {
		for si, scheme := range r.Schemes {
			if r.Seeds > 1 {
				fmt.Fprintf(tw, "%d\t%s\t%.0f±%.0f\t%.0f\t%.2f\t%.0f\n",
					row.Flows, scheme, row.MeanMs[si], row.MeanStdMs[si],
					row.MaxMs[si], row.MaxOverMean[si], row.IdealMs)
			} else {
				fmt.Fprintf(tw, "%d\t%s\t%.0f\t%.0f\t%.2f\t%.0f\n",
					row.Flows, scheme, row.MeanMs[si], row.MaxMs[si],
					row.MaxOverMean[si], row.IdealMs)
			}
		}
	}
	tw.Flush()
}
