package experiments

import (
	"fmt"
	"io"
	"math"

	"flowbender/internal/sim"
	"flowbender/internal/stats"
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

// linkFailureOut is one scheme's measurement.
type linkFailureOut struct {
	total            int
	completed        int
	affected         int
	meanAffectedMs   float64
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
		RTOMin:    10 * sim.Millisecond,
		Completed: make(map[Scheme]int),
		Affected:  make(map[Scheme]int),

		MeanAffectedFCTms:   make(map[Scheme]float64),
		MeanUnaffectedFCTms: make(map[Scheme]float64),
	}
	schemes := []Scheme{ECMP, FlowBender}
	name := func(s Scheme) string {
		return o.pointLabel("linkfailure/%s/seed=%d", s, o.Seed)
	}
	outs := fanOut(o, schemes, name, res.runOne)
	for i, scheme := range schemes {
		out := outs[i]
		res.Total = out.total
		res.Completed[scheme] = out.completed
		res.Affected[scheme] = out.affected
		res.MeanAffectedFCTms[scheme] = out.meanAffectedMs
		res.MeanUnaffectedFCTms[scheme] = out.meanUnaffectedMs
		o.logf("linkfailure: %s completed=%d/%d affected=%d meanAffectedFCT=%.1fms",
			scheme, out.completed, out.total, out.affected, out.meanAffectedMs)
	}
	return res
}

// runOne runs one scheme; it only reads the result's scenario constants
// (FlowBytes, FailAt, Deadline), never writes, so parallel calls are safe.
func (r *LinkFailureResult) runOne(o Options, scheme Scheme) linkFailureOut {
	b := o.newBed(scheme)
	defer b.release()
	p := o.params()
	ft := b.ar.fatTree(b.set, b.eng, p)

	// One flow per pod-0 host, each to the corresponding pod-1 host, so the
	// up-paths carry several flows and at least some hash across the link
	// we are about to cut.
	perPod := p.TorsPerPod * p.ServersPerTor
	for i := 0; i < perPod; i++ {
		b.start(ft.Hosts[i], ft.Hosts[perPod+i], r.FlowBytes)
	}
	flows := b.flows
	out := linkFailureOut{total: len(flows)}

	// Cut the first aggregation switch's first core uplink in pod 0.
	b.eng.At(r.FailAt, func() { ft.AggCoreLinks[0][0][0].Fail() })

	b.drain(r.Deadline, len(flows))

	var affected, unaffected stats.Sketch
	for _, f := range flows {
		hadTimeout := f.Sender().Timeouts > 0
		if hadTimeout {
			out.affected++
		}
		if f.Done() {
			out.completed++
			if hadTimeout {
				affected.Add(f.FCT().Seconds() * 1000)
			} else {
				unaffected.Add(f.FCT().Seconds() * 1000)
			}
		}
	}
	out.meanAffectedMs = affected.Mean()
	out.meanUnaffectedMs = unaffected.Mean()
	return out
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
