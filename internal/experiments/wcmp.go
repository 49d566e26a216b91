package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/stats"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// WCMPVariant is one row of the asymmetry experiment.
type WCMPVariant struct {
	Name       string
	FlowBender bool
	Weights    map[int32]int // per-uplink WCMP weights (nil = plain ECMP)
}

// WCMPResult covers the §4.3.1 discussion of Weighted Cost Multipathing:
// on an asymmetric fabric (one spine path at half capacity), plain ECMP
// oversubscribes the thin path; WCMP with correct weights fixes it; WCMP
// with coarse (table-limited) weights still missubscribes it — and
// FlowBender dynamically compensates for the weight misconfiguration.
type WCMPResult struct {
	Variants []WCMPVariant
	// MeanMs/P99Ms per variant.
	MeanMs []float64
	P99Ms  []float64
	// ThinShare is the fraction of TCP bytes sent onto the half-capacity
	// path (ideal = capacity share = 1/7 for 5 Gbps of 35 Gbps).
	ThinShare []float64
	ThinGbps  float64
}

// WCMP runs a ToR-to-ToR shuffle over a leaf-spine where spine path 0 runs
// at half rate, under ECMP, exact WCMP, coarse WCMP, and coarse WCMP with
// FlowBender on top.
func WCMP(o Options) *WCMPResult {
	res := &WCMPResult{
		ThinGbps: 5,
		Variants: []WCMPVariant{
			{Name: "ECMP (oblivious)"},
			{Name: "WCMP exact weights", Weights: map[int32]int{0: 1, 1: 2, 2: 2, 3: 2}},
			{Name: "WCMP coarse weights (1:1:1:2)", Weights: map[int32]int{0: 1, 1: 1, 2: 1, 3: 2}},
			{Name: "coarse WCMP + FlowBender", FlowBender: true, Weights: map[int32]int{0: 1, 1: 1, 2: 1, 3: 2}},
			{Name: "ECMP + FlowBender", FlowBender: true},
		},
	}
	// Each variant is an independent simulation point.
	name := func(v WCMPVariant) string {
		return o.pointLabel("wcmp/%s/seed=%d", v.Name, o.Seed)
	}
	outs := fanOut(o, res.Variants, name, func(oo Options, v WCMPVariant) [3]float64 {
		mean, p99, share := oo.runWCMP(v)
		return [3]float64{mean, p99, share}
	})
	for i, v := range res.Variants {
		mean, p99, share := outs[i][0], outs[i][1], outs[i][2]
		res.MeanMs = append(res.MeanMs, mean*1000)
		res.P99Ms = append(res.P99Ms, p99*1000)
		res.ThinShare = append(res.ThinShare, share)
		o.logf("wcmp: %-30s mean=%.3gms p99=%.3gms thinShare=%.3f", v.Name, mean*1000, p99*1000, share)
	}
	return res
}

func (o Options) runWCMP(v WCMPVariant) (mean, p99, thinShare float64) {
	b := o.newBedWith(schemeSetup{cfg: tcp.DefaultConfig(), sel: routing.ECMP{}})
	defer b.release()

	lp := topo.SmallTestbed()
	if o.Scale == ScalePaper {
		lp = topo.TestbedScale()
	}
	if v.Weights != nil {
		w := make(map[int32]int, len(v.Weights))
		for k, wt := range v.Weights {
			w[int32(lp.ServersPerTor)+k] = wt // uplink ports follow server ports
		}
		b.set.sel = &routing.WCMP{Weights: w}
	}
	ls := b.ar.leafSpine(b.set, b.eng, lp)

	// Make spine path 0 half-rate in both directions between ToR 0 and 1
	// (an incremental-deployment asymmetry).
	for _, t := range []int{0, 1} {
		ls.UpLinks[t][0].AtoB.RateBps = lp.LinkRateBps / 2
		ls.UpLinks[t][0].BtoA.RateBps = lp.LinkRateBps / 2
	}

	if v.FlowBender {
		b.set.cfg.FlowBender = &core.Config{
			MinEpochGap: StabilityGap, DesyncN: true, RNG: b.rng.Fork("fb"),
		}
	}
	// Offered load: 60% of the asymmetric ToR-pair capacity (3.5 links).
	capBps := float64(lp.LinkRateBps) * (float64(lp.Spines) - 0.5)
	const flowBytes = 1_000_000
	gen := &workload.AllToAll{
		Eng: b.eng, RNG: b.rng.Fork("workload"),
		Hosts: hostsAt(ls.Hosts, ls.TorHosts(1)), SrcHosts: hostsAt(ls.Hosts, ls.TorHosts(0)),
		CDF:              workload.Fixed(flowBytes),
		IDs:              &workload.IDAllocator{},
		Start:            b.start,
		MeanInterarrival: sim.Time(float64(sim.Second) * flowBytes * 8 / (0.6 * capBps)),
		MaxFlows:         o.flowCount() / 2,
	}
	gen.Run()
	b.drain(o.maxWait(), gen.MaxFlows)

	var s stats.Sketch
	for _, f := range gen.Flows {
		if f.Done() {
			s.Add(f.FCT().Seconds())
		}
	}
	var thin, total int64
	for i, l := range ls.UpLinks[0] {
		b := l.AtoB.TxBytes(netsim.ProtoTCP)
		total += b
		if i == 0 {
			thin = b
		}
	}
	if total > 0 {
		thinShare = float64(thin) / float64(total)
	}
	return s.Mean(), s.Percentile(99), thinShare
}

// Print writes the asymmetry comparison.
func (r *WCMPResult) Print(w io.Writer) {
	fmt.Fprintln(w, "WCMP / asymmetric fabric (§4.3.1 discussion): spine path 0 at half rate")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\tmean FCT (ms)\tp99 FCT (ms)\tbytes on thin path\t(capacity share 0.143)")
	for i, v := range r.Variants {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.3f\t\n", v.Name, r.MeanMs[i], r.P99Ms[i], r.ThinShare[i])
	}
	tw.Flush()
	fmt.Fprintln(w, "  (FlowBender compensates for coarse/missing weights by steering flows off the congested thin path)")
}
