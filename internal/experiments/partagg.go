package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"flowbender/internal/stats"
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
// The (fan-in, scheme, seed) points fan out across Options.Parallelism
// workers.
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
		rep    int
	}
	var points []point
	for _, fanIn := range res.FanIns {
		for _, s := range res.Schemes {
			for rep := 0; rep < reps; rep++ {
				points = append(points, point{fanIn: fanIn, scheme: s, rep: rep})
			}
		}
	}
	name := func(pt point) string {
		return o.pointLabel("partagg/fanin=%d/%s/seed=%d", pt.fanIn, pt.scheme, o.seedAt(pt.rep))
	}
	outs := fanOut(o, points, name, func(oo Options, pt point) float64 {
		oo.Seed = o.seedAt(pt.rep)
		return oo.runPartAgg(pt.scheme, pt.fanIn, res.Load, res.JobBytes)
	})
	idx := func(fi, si, rep int) int { return (fi*len(res.Schemes)+si)*reps + rep }

	for fi, fanIn := range res.FanIns {
		norm := make(map[Scheme]float64)
		abs := make(map[Scheme]float64)
		std := make(map[Scheme]float64)
		for si, s := range res.Schemes {
			jcts := make([]float64, reps)
			for rep := 0; rep < reps; rep++ {
				jcts[rep] = outs[idx(fi, si, rep)]
			}
			agg := stats.Summarize(jcts)
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
	b := o.newBed(scheme)
	defer b.release()
	p := o.params()
	ft := b.ar.fatTree(b.set, b.eng, p)

	gen := &workload.PartitionAggregate{
		Eng:      b.eng,
		RNG:      b.rng.Fork("workload"),
		Hosts:    ft.Hosts,
		IDs:      &workload.IDAllocator{},
		Start:    b.start,
		JobBytes: jobBytes,
		FanIn:    fanIn,
		MeanInterarrival: workload.JobInterarrival(
			load, p.BisectionBps(), p.InterPodFraction(), jobBytes),
		MaxJobs: o.jobCount(),
	}
	gen.Run()
	b.drain(o.maxWait(), gen.MaxJobs*fanIn) // every job starts fanIn flows at once

	var s stats.Sketch
	for _, j := range gen.Jobs {
		if j.Done() {
			s.Add(j.CompletionTime().Seconds())
		}
	}
	return s.Mean()
}

// Print writes Figure 5 as a table.
func (r *PartAggResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: partition-aggregate avg job completion time normalized to ECMP (load %.0f%%, %d KB jobs)\n",
		r.Load*100, r.JobBytes/1000)
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
		fmt.Fprintf(tw, "\t%.2f\n", r.AbsJCTms[fanIn][ECMP])
	}
	tw.Flush()
}
