package experiments

import (
	"fmt"
	"io"
	"math"

	"flowbender/internal/faults"
	"flowbender/internal/sim"
	"flowbender/internal/stats"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// LinkFailureResult quantifies the §3.3.2 claim: FlowBender routes around a
// failed link within about one RTO, while static ECMP flows whose hash maps
// onto the dead link stay stuck until routing reconverges (not modeled —
// the paper puts it at O(seconds)).
type LinkFailureResult struct {
	FlowBytes int64
	FailAt    sim.Time
	Deadline  sim.Time
	RTOMin    sim.Time

	// Per scheme: flows completed before the deadline / total.
	Completed map[Scheme]int
	Total     int
	// AffectedTimeouts[scheme]: flows that saw at least one RTO.
	Affected map[Scheme]int
	// MeanAffectedFCTms: mean completion time of affected flows (only
	// meaningful where they complete at all).
	MeanAffectedFCTms map[Scheme]float64
	// MeanUnaffectedFCTms: baseline completion of untouched flows.
	MeanUnaffectedFCTms map[Scheme]float64
}

// podPairOut is one pod-pair point's measurement: a fault matrix cell, and
// the mean completion time of the flows no RTO touched.
type podPairOut struct {
	FaultCell
	meanUnaffectedMs float64
}

// LinkFailure starts one long flow per source host from pod 0 to pod 1,
// fails one aggregation-to-core cable shortly after, and compares ECMP's
// and FlowBender's ability to finish the transfers. The two scheme runs
// execute in parallel on the pool.
func LinkFailure(o Options) *LinkFailureResult {
	res := &LinkFailureResult{
		FlowBytes: 10_000_000,
		FailAt:    1 * sim.Millisecond,
		Deadline:  2 * sim.Second,
		RTOMin:    tcp.RTOMin,
		Completed: make(map[Scheme]int),
		Affected:  make(map[Scheme]int),

		MeanAffectedFCTms:   make(map[Scheme]float64),
		MeanUnaffectedFCTms: make(map[Scheme]float64),
	}
	schemes := []Scheme{ECMP, FlowBender}
	outs := must(runPoints(o, "linkfailure", 1, schemes, Scheme.String, res.runOne))
	for i, scheme := range schemes {
		out := outs[i]
		res.Total = out.Total
		res.Completed[scheme] = out.Completed
		res.Affected[scheme] = out.Affected
		res.MeanAffectedFCTms[scheme] = out.MeanAffectedFCTms
		res.MeanUnaffectedFCTms[scheme] = out.meanUnaffectedMs
		o.logf("linkfailure: %s completed=%d/%d affected=%d meanAffectedFCT=%.1fms",
			scheme, out.Completed, out.Total, out.Affected, out.MeanAffectedFCTms)
	}
	return res
}

// runPodPair runs the point linkfailure and faults share — one flow of size
// bytes per pod-0 host to the corresponding pod-1 host, all started at
// set-up, so the up-paths carry several flows and at least some hash across
// the cable arm faults — and tallies its flows.
func (o Options) runPodPair(scheme Scheme, size int64, deadline sim.Time,
	arm func(*topo.FatTree, *sim.RNG) (func(), error)) podPairOut {
	p := o.params()
	perPod := p.TorsPerPod * p.ServersPerTor
	var flows []*tcp.Flow
	res := o.runPoint(point{
		scheme: scheme,
		flows:  perPod,
		burst:  true,
		workload: func(*sim.RNG, topo.Params) (workload.Schedule, sim.Time) {
			specs := make([]workload.FlowSpec, perPod)
			for i := range specs {
				specs[i] = workload.FlowSpec{SrcIdx: int32(i), DstIdx: int32(perPod + i), Size: size}
			}
			return &batches{specs}, deadline
		},
		arm:    arm,
		onFlow: func(f *tcp.Flow) { flows = append(flows, f) },
	})
	if res.err != nil {
		return podPairOut{FaultCell: FaultCell{Err: res.err.Error()}}
	}

	cell := FaultCell{Total: len(flows)}
	var affected, unaffected stats.Sketch
	var recTotal sim.Time
	var recCount int64
	for _, f := range flows {
		hadTimeout := f.Sender().Timeouts > 0
		if hadTimeout {
			cell.Affected++
		}
		if f.Done() {
			cell.Completed++
			if hadTimeout {
				affected.Add(f.FCT().Seconds() * 1000)
			} else {
				unaffected.Add(f.FCT().Seconds() * 1000)
			}
		}
		rec := f.Recovery()
		recTotal += rec.Total
		recCount += rec.Count
		cell.Reroutes += f.FlowBenderStats().Reroutes
	}
	cell.MeanAffectedFCTms = affected.Mean()
	if recCount > 0 {
		cell.MeanRecoveryMs = (recTotal / sim.Time(recCount)).Seconds() * 1000
	}
	return podPairOut{cell, unaffected.Mean()}
}

// runOne runs one scheme; it only reads the result's scenario constants
// (FlowBytes, FailAt, Deadline), never writes, so parallel calls are safe.
func (r *LinkFailureResult) runOne(o Options, scheme Scheme) podPairOut {
	return o.runPodPair(scheme, r.FlowBytes, r.Deadline, func(ft *topo.FatTree, rng *sim.RNG) (func(), error) {
		// The fault matrix's cut row: faultTarget, never restored.
		plan := faults.Plan{Events: []faults.Event{faults.Cut(r.FailAt, faultTarget)}}
		return nil, faults.Apply(ft.Eng, rng.Fork("faults"), ft, plan)
	})
}

// ms formats a millisecond value, rendering NaN (no samples) as "n/a".
func ms(v float64) string {
	if math.IsNaN(v) {
		return "n/a (none completed)"
	}
	return fmt.Sprintf("%.1f ms", v)
}

// Print writes the link-failure summary.
func (r *LinkFailureResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Link failure recovery (§3.3.2): %d MB inter-pod flows, one core uplink cut at %v (RTOmin %v)\n",
		r.FlowBytes/1_000_000, r.FailAt, r.RTOMin)
	for _, s := range []Scheme{ECMP, FlowBender} {
		fmt.Fprintf(w, "  %-11s completed %d/%d; flows hitting RTO: %d; mean FCT affected %s vs unaffected %s\n",
			s, r.Completed[s], r.Total, r.Affected[s],
			ms(r.MeanAffectedFCTms[s]), ms(r.MeanUnaffectedFCTms[s]))
	}
	fmt.Fprintln(w, "  (FlowBender re-draws V on each RTO: affected flows finish ~one RTO late; static ECMP flows on the dead path never finish)")
}
