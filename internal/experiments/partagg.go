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

// DefaultFanIns are Figure 5's x-axis values.
var DefaultFanIns = []int{4, 8, 16, 32}

// PartAggResult reproduces Figure 5: the average completion time of
// partition-aggregate jobs (the last flow of each incast), normalized to
// ECMP, as the fan-in degree varies at 40% load.
type PartAggResult struct {
	FanIns  []int
	Schemes []Scheme
	// NormJCT[fanin][scheme]: average job completion normalized to ECMP.
	NormJCT map[int]map[Scheme]float64
	// AbsJCTms[fanin][scheme]: absolute average job completion in ms
	// (mean across seeds).
	AbsJCTms map[int]map[Scheme]float64
	// JCTStdMs[fanin][scheme]: across-seed stddev of the average job
	// completion (0 with one seed).
	JCTStdMs map[int]map[Scheme]float64
	Load     float64
	JobBytes int64
	// Seeds is the replication count the averages were aggregated over.
	Seeds int
}

// PartitionAggregate runs the §4.2.4 incast workload: 1 MB transactions
// split evenly across n workers, arriving as a Poisson process at 40% load.
// Every (fan-in, scheme) point runs at each replicate seed.
func PartitionAggregate(o Options) *PartAggResult {
	reps := o.seeds()
	res := &PartAggResult{
		FanIns:   DefaultFanIns,
		Schemes:  AllSchemes,
		NormJCT:  make(map[int]map[Scheme]float64),
		AbsJCTms: make(map[int]map[Scheme]float64),
		JCTStdMs: make(map[int]map[Scheme]float64),
		Load:     0.4,
		JobBytes: 1_000_000,
		Seeds:    reps,
	}
	type point struct {
		fanIn  int
		scheme Scheme
	}
	var points []point
	for _, fanIn := range res.FanIns {
		for _, s := range res.Schemes {
			points = append(points, point{fanIn: fanIn, scheme: s})
		}
	}
	label := func(pt point) string { return fmt.Sprintf("fanin=%d/%s", pt.fanIn, pt.scheme) }
	outs := must(runPoints(o, "partagg", reps, points, label, func(o Options, pt point) float64 {
		return o.runPartAgg(pt.scheme, pt.fanIn, res.Load, res.JobBytes)
	}))
	for fi, fanIn := range res.FanIns {
		norm := make(map[Scheme]float64)
		abs := make(map[Scheme]float64)
		std := make(map[Scheme]float64)
		for si, s := range res.Schemes {
			i := (fi*len(res.Schemes) + si) * reps
			agg := stats.Summarize(outs[i : i+reps])
			abs[s] = agg.Mean * 1000
			std[s] = agg.Std * 1000
			o.logf("part-agg: fanin=%d %s avgJCT=%.3gms", fanIn, s, agg.Mean*1000)
		}
		for _, s := range res.Schemes {
			norm[s] = stats.Ratio(abs[s], abs[ECMP])
		}
		res.NormJCT[fanIn] = norm
		res.AbsJCTms[fanIn] = abs
		res.JCTStdMs[fanIn] = std
	}
	return res
}

func (o Options) runPartAgg(scheme Scheme, fanIn int, load float64, jobBytes int64) float64 {
	jobs := o.jobCount()
	var flows []*tcp.Flow
	o.runPoint(point{
		scheme: scheme,
		flows:  jobs * fanIn, // every job starts fanIn flows at once
		workload: func(root *sim.RNG, p topo.Params) (workload.Schedule, sim.Time) {
			return &workload.PartitionAggregate{
				RNG:      root.Fork("workload"),
				NumHosts: p.NumHosts(),
				JobBytes: jobBytes,
				FanIn:    fanIn,
				MeanInterarrival: workload.JobInterarrival(
					load, p.BisectionBps(), p.InterPodFraction(), jobBytes),
				MaxJobs: jobs + 1,
			}, o.maxWait()
		},
		onFlow: func(f *tcp.Flow) { flows = append(flows, f) },
	})

	// Job k is flows [k*fanIn, (k+1)*fanIn); it completes with its slowest
	// response, counted from the instant all of them started.
	var s stats.Sketch
	for job := flows; len(job) >= fanIn; job = job[fanIn:] {
		if last, ok := lastDone(job[:fanIn]); ok {
			s.Add((last - job[0].Start).Seconds())
		}
	}
	return s.Mean()
}

// lastDone returns the latest completion among flows, and false if any is
// still incomplete.
func lastDone(flows []*tcp.Flow) (sim.Time, bool) {
	var last sim.Time
	for _, f := range flows {
		if !f.Done() {
			return 0, false
		}
		last = max(last, f.RecvDone)
	}
	return last, true
}

// Print writes Figure 5 as a table.
func (r *PartAggResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: partition-aggregate avg job completion time normalized to ECMP (load %.0f%%, %d KB jobs)\n",
		r.Load*100, r.JobBytes/1000)
	if r.Seeds > 1 {
		fmt.Fprintf(w, "(mean ± stddev over %d seeds)\n", r.Seeds)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "fan-in")
	for _, s := range r.Schemes {
		if s == ECMP {
			continue
		}
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw, "\tECMP abs (ms)")
	for _, fanIn := range r.FanIns {
		fmt.Fprintf(tw, "%d", fanIn)
		for _, s := range r.Schemes {
			if s == ECMP {
				continue
			}
			fmt.Fprintf(tw, "\t%.2f", r.NormJCT[fanIn][s])
		}
		if r.Seeds > 1 {
			fmt.Fprintf(tw, "\t%.2f±%.2f\n", r.AbsJCTms[fanIn][ECMP], r.JCTStdMs[fanIn][ECMP])
		} else {
			fmt.Fprintf(tw, "\t%.2f\n", r.AbsJCTms[fanIn][ECMP])
		}
	}
	tw.Flush()
}
