package experiments

import (
	"fmt"
	"io"
	"math"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
	"flowbender/internal/udp"
	"flowbender/internal/workload"
)

// HotspotResult reproduces §4.3.1: an aggregate 14 Gbps TCP shuffle between
// two ToRs shares four 10 Gbps paths with a pinned 6 Gbps UDP flow; a good
// load balancer moves TCP traffic off the UDP path U.
type HotspotResult struct {
	Paths   int
	UDPGbps float64
	TCPGbps float64
	// TCPOnU[scheme] is the average TCP rate (Gbps) crossing the hotspot
	// path during the measurement window. The paper reports ~3.5 for ECMP
	// and ~1.5 for FlowBender.
	TCPOnU map[Scheme]float64
	// PerLink[scheme] is the full TCP Gbps split across the uplinks.
	PerLink map[Scheme][]float64
	// UDPDelivered[scheme] is the fraction of UDP datagrams delivered.
	UDPDelivered map[Scheme]float64
}

// hotspotOut is one scheme's measurement.
type hotspotOut struct {
	tcpOnU       float64
	perLink      []float64
	udpDelivered float64
}

// Hotspot runs the decongestion experiment for ECMP and FlowBender; the
// two scheme runs are independent and execute in parallel on the pool.
func Hotspot(o Options) *HotspotResult {
	res := &HotspotResult{
		Paths:        topo.SmallTestbed().AggsPerPod,
		UDPGbps:      6,
		TCPGbps:      14,
		TCPOnU:       make(map[Scheme]float64),
		PerLink:      make(map[Scheme][]float64),
		UDPDelivered: make(map[Scheme]float64),
	}
	schemes := []Scheme{ECMP, FlowBender}
	name := func(s Scheme) string {
		return o.pointLabel("hotspot/%s/seed=%d", s, o.Seed)
	}
	outs := fanOut(o, schemes, name, Options.runHotspot)
	for i, scheme := range schemes {
		out := outs[i]
		res.TCPOnU[scheme] = out.tcpOnU
		res.PerLink[scheme] = out.perLink
		res.UDPDelivered[scheme] = out.udpDelivered
		o.logf("hotspot: %s tcpOnU=%.2fGbps perLink=%v udpDelivered=%.3f",
			scheme, out.tcpOnU, out.perLink, out.udpDelivered)
	}
	return res
}

// runHotspot measures one scheme. Its TCP shuffle is the one deliberately
// unbounded schedule: arrivals go on until the measurement window ends.
func (o Options) runHotspot(scheme Scheme) hotspotOut {
	lp := topo.SmallTestbed()
	var out hotspotOut
	srcIdx, dstIdx := lp.TorHosts(0, 0), lp.TorHosts(0, 1)
	// Warm up, snapshot counters at the warm barrier, measure to the deadline.
	warm := 20 * sim.Millisecond
	meas := 80 * sim.Millisecond
	if o.Scale == ScaleTiny {
		warm, meas = 5*sim.Millisecond, 20*sim.Millisecond
	}
	var uplinks []*netsim.Duplex
	var startTCP, startUDP []int64
	o.runPoint(point{
		scheme: scheme,
		params: &lp,
		flows:  math.MaxInt,
		workload: func(root *sim.RNG, _ topo.Params) (workload.Schedule, sim.Time) {
			// TCP shuffle: 1 MB flows ToR0 -> ToR1 at an aggregate 14 Gbps.
			const flowBytes = 1_000_000
			flowsPerSec := 14 * float64(topo.Gbps) / (flowBytes * 8)
			return &workload.AllToAll{
				RNG:              root.Fork("workload"),
				Srcs:             srcIdx,
				Dsts:             dstIdx,
				CDF:              workload.Fixed(flowBytes),
				MeanInterarrival: sim.Time(float64(sim.Second) / flowsPerSec),
				MaxFlows:         math.MaxInt,
			}, warm + meas
		},
		arm: func(ft *topo.FatTree, _ *sim.RNG) (func(), error) {
			// Pinned UDP hotspot: 6 Gbps, fixed path tag, so it statically
			// hashes onto one of the spine paths.
			src, dst := ft.Hosts[srcIdx[0]], ft.Hosts[dstIdx[0]]
			udpSender := udp.NewSender(ft.Eng, 1_000_000, src, dst, 6*topo.Gbps, 1460)
			sink := udp.NewSink()
			dst.Register(1_000_000, sink)
			udpSender.Start()
			uplinks = ft.TorAggLinks[0][0]
			return func() {
				udpSender.Stop()
				out.perLink = make([]float64, len(uplinks))
				uIdx, uBytes := 0, int64(-1)
				for i, l := range uplinks {
					dTCP := l.AtoB.TxBytes(netsim.ProtoTCP) - startTCP[i]
					dUDP := l.AtoB.TxBytes(netsim.ProtoUDP) - startUDP[i]
					out.perLink[i] = float64(dTCP) * 8 / meas.Seconds() / float64(topo.Gbps)
					if dUDP > uBytes {
						uBytes, uIdx = dUDP, i
					}
				}
				out.tcpOnU = out.perLink[uIdx]
				if udpSender.Sent > 0 {
					out.udpDelivered = float64(sink.Packets) / float64(udpSender.Sent)
				}
			}, nil
		},
		onBarrier: func(now sim.Time) {
			if now == warm {
				for _, l := range uplinks {
					startTCP = append(startTCP, l.AtoB.TxBytes(netsim.ProtoTCP))
					startUDP = append(startUDP, l.AtoB.TxBytes(netsim.ProtoUDP))
				}
			}
		},
	})
	return out
}

// Print writes the hotspot summary.
func (r *HotspotResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Hotspot decongestion (§4.3.1): %d paths, %.0f Gbps pinned UDP + %.0f Gbps TCP shuffle\n",
		r.Paths, r.UDPGbps, r.TCPGbps)
	for _, s := range []Scheme{ECMP, FlowBender} {
		fmt.Fprintf(w, "  %-11s TCP on hotspot path U: %.2f Gbps   per-link TCP Gbps:", s, r.TCPOnU[s])
		for _, g := range r.PerLink[s] {
			fmt.Fprintf(w, " %.2f", g)
		}
		fmt.Fprintf(w, "   UDP delivery %.1f%%\n", r.UDPDelivered[s]*100)
	}
	fmt.Fprintln(w, "  (paper: ECMP leaves ~3.5 Gbps of TCP on U; FlowBender ~1.5 Gbps)")
}
