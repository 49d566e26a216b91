package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
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
	lp := topo.SmallTestbed()
	if o.Scale == ScalePaper {
		lp = topo.TestbedScale()
	}
	// Offered load: 60% of the asymmetric ToR-pair capacity (3.5 links).
	capBps := float64(lp.LinkRateBps) * (float64(lp.AggsPerPod) - 0.5)
	// Half the run's flows, and at least one.
	const flowBytes = 1_000_000
	flows := max(1, o.flowCount()/2)
	var run []*tcp.Flow
	o.runPoint(point{
		params: &lp,
		flows:  flows,
		setupFn: func(*sim.RNG) schemeSetup {
			set := schemeSetup{cfg: tcp.DefaultConfig(), sel: routing.ECMP{}}
			if v.Weights != nil {
				w := make(map[int32]int, len(v.Weights))
				for k, wt := range v.Weights {
					w[int32(lp.ServersPerTor)+k] = wt // uplink ports follow server ports
				}
				set.sel = &routing.WCMP{Weights: w}
			}
			if v.FlowBender {
				// Its stream forks off the seed's root, not the scheme stream.
				set.cfg.FlowBender = &core.Config{
					MinEpochGap: StabilityGap, DesyncN: true, RNG: sim.NewRNG(o.Seed).Fork("fb"),
				}
			}
			return set
		},
		workload: func(root *sim.RNG, _ topo.Params) (workload.Schedule, sim.Time) {
			return &workload.AllToAll{
				RNG:              root.Fork("workload"),
				Srcs:             lp.TorHosts(0, 0),
				Dsts:             lp.TorHosts(0, 1),
				CDF:              workload.Fixed(flowBytes),
				MeanInterarrival: sim.Time(float64(sim.Second) * flowBytes * 8 / (0.6 * capBps)),
				MaxFlows:         flows + 1,
			}, o.maxWait()
		},
		arm: func(ft *topo.FatTree, _ *sim.RNG) (func(), error) {
			// Make spine path 0 half-rate in both directions between ToR 0
			// and 1 (an incremental-deployment asymmetry).
			up := ft.TorAggLinks[0]
			for _, t := range []int{0, 1} {
				up[t][0].AtoB.RateBps = lp.LinkRateBps / 2
				up[t][0].BtoA.RateBps = lp.LinkRateBps / 2
			}
			return func() {
				var total int64
				for _, l := range up[0] {
					total += l.AtoB.TxBytes(netsim.ProtoTCP)
				}
				if total > 0 {
					thinShare = float64(up[0][0].AtoB.TxBytes(netsim.ProtoTCP)) / float64(total)
				}
			}, nil
		},
		onFlow: func(f *tcp.Flow) { run = append(run, f) },
	})
	s := doneFCTs(run)
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
