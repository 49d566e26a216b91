package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"flowbender/internal/sim"
	"flowbender/internal/stats"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// TestbedResult reproduces Figure 8: FlowBender's completion time relative
// to ECMP on the testbed's leaf-spine (a one-pod fat-tree), at the mean, 99th, and
// 99.9th percentiles, for 20/40/60% load.
type TestbedResult struct {
	Loads []float64
	// Norm[load] holds FlowBender/ECMP ratios {mean, p99, p999}.
	Norm map[float64][3]float64
	// ECMPAbsMs[load] holds the ECMP absolute values in ms for context.
	ECMPAbsMs map[float64][3]float64
	FlowBytes int64
	Tors      int
	Spines    int
}

// Testbed runs the §4.3 experiment on the simulated testbed: servers of one
// ToR initiate fixed 1 MB flows to random servers elsewhere, with
// exponential interarrivals sized so the ToR's uplinks (its slice of the
// bisection) carry the target load.
func Testbed(o Options) *TestbedResult {
	lp := topo.TestbedScale()
	if o.Scale == ScaleTiny {
		lp = topo.SmallTestbed()
	}
	res := &TestbedResult{
		Loads:     DefaultLoads,
		Norm:      make(map[float64][3]float64),
		ECMPAbsMs: make(map[float64][3]float64),
		FlowBytes: 1_000_000,
		Tors:      lp.TorsPerPod,
		Spines:    lp.AggsPerPod,
	}
	flows := o.flowCount()
	// Each (load, scheme) pair is an independent simulation point.
	schemes := []Scheme{ECMP, FlowBender}
	type point struct {
		load   float64
		scheme Scheme
	}
	var points []point
	for _, load := range res.Loads {
		for _, scheme := range schemes {
			points = append(points, point{load: load, scheme: scheme})
		}
	}
	name := func(pt point) string {
		return o.pointLabel("testbed/load=%g/%s/seed=%d", pt.load, pt.scheme, o.Seed)
	}
	outs := fanOut(o, points, name, func(oo Options, pt point) [3]float64 {
		s := oo.runTestbed(lp, pt.scheme, pt.load, flows, res.FlowBytes)
		return [3]float64{s.Mean(), s.Percentile(99), s.Percentile(99.9)}
	})
	for li, load := range res.Loads {
		var vals [2][3]float64
		for i, scheme := range schemes {
			vals[i] = outs[li*len(schemes)+i]
			o.logf("testbed: load=%.0f%% %s mean=%.3gms p99=%.3gms p99.9=%.3gms",
				load*100, scheme, vals[i][0]*1000, vals[i][1]*1000, vals[i][2]*1000)
		}
		res.ECMPAbsMs[load] = [3]float64{vals[0][0] * 1000, vals[0][1] * 1000, vals[0][2] * 1000}
		res.Norm[load] = [3]float64{
			stats.Ratio(vals[1][0], vals[0][0]),
			stats.Ratio(vals[1][1], vals[0][1]),
			stats.Ratio(vals[1][2], vals[0][2]),
		}
	}
	return res
}

func (o Options) runTestbed(lp topo.Params, scheme Scheme, load float64, flows int, size int64) *stats.Sketch {
	var run []*tcp.Flow
	o.runPoint(point{
		scheme: scheme,
		params: &lp,
		flows:  flows,
		workload: func(root *sim.RNG, _ topo.Params) (workload.Schedule, sim.Time) {
			// Load is relative to the source ToR's bisection slice: its uplinks.
			bisectionBps := float64(lp.AggsPerPod) * float64(lp.LinkRateBps)
			flowsPerSec := load * bisectionBps / (float64(size) * 8)
			return &workload.AllToAll{
				RNG:              root.Fork("workload"),
				NumHosts:         lp.NumHosts(),
				Srcs:             lp.TorHosts(0, 0),
				CDF:              workload.Fixed(size),
				MeanInterarrival: sim.Time(float64(sim.Second) / flowsPerSec),
				MaxFlows:         flows + 1,
			}, o.maxWait()
		},
		onFlow: func(f *tcp.Flow) { run = append(run, f) },
	})
	return doneFCTs(run)
}

// doneFCTs sketches the completion times, in seconds, of the flows that
// completed, in arrival order.
func doneFCTs(flows []*tcp.Flow) *stats.Sketch {
	var s stats.Sketch
	for _, f := range flows {
		if f.Done() {
			s.Add(f.FCT().Seconds())
		}
	}
	return &s
}

// Print writes Figure 8 as a table.
func (r *TestbedResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: testbed (%d ToRs x %d spines) FlowBender latency normalized to ECMP, %d KB flows\n",
		r.Tors, r.Spines, r.FlowBytes/1000)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "load\tmean\t99th\t99.9th\tECMP mean (ms)\tECMP 99th (ms)\tECMP 99.9th (ms)")
	for _, load := range r.Loads {
		n := r.Norm[load]
		a := r.ECMPAbsMs[load]
		fmt.Fprintf(tw, "%.0f%%\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			load*100, n[0], n[1], n[2], a[0], a[1], a[2])
	}
	tw.Flush()
}
