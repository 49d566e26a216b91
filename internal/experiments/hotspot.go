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
	paths        int
	tcpOnU       float64
	perLink      []float64
	udpDelivered float64
}

// Hotspot runs the decongestion experiment for ECMP and FlowBender; the
// two scheme runs are independent and execute in parallel on the pool.
func Hotspot(o Options) *HotspotResult {
	res := &HotspotResult{
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
		res.Paths = out.paths
		res.TCPOnU[scheme] = out.tcpOnU
		res.PerLink[scheme] = out.perLink
		res.UDPDelivered[scheme] = out.udpDelivered
		o.logf("hotspot: %s tcpOnU=%.2fGbps perLink=%v udpDelivered=%.3f",
			scheme, out.tcpOnU, out.perLink, out.udpDelivered)
	}
	return res
}

// runHotspot measures one scheme. Its TCP shuffle is the one deliberately
// unbounded schedule: arrivals go on until the measurement window ends and
// the engine is not run again.
func (o Options) runHotspot(scheme Scheme) hotspotOut {
	b := o.newBed(scheme)
	defer b.release()
	eng := b.eng
	lp := topo.SmallTestbed()
	ls := b.ar.leafSpine(b.set, eng, lp)
	out := hotspotOut{paths: lp.Spines}

	srcIdx := ls.TorHosts(0)
	dstIdx := ls.TorHosts(1)

	// Pinned UDP hotspot: 6 Gbps, fixed path tag, so it statically hashes
	// onto one of the spine paths.
	udpSender := udp.NewSender(eng, 1_000_000, ls.Hosts[srcIdx[0]], ls.Hosts[dstIdx[0]], 6*topo.Gbps, 1460)
	sink := udp.NewSink()
	ls.Hosts[dstIdx[0]].Register(1_000_000, sink)
	udpSender.Start()

	// TCP shuffle: 1 MB flows ToR0 -> ToR1 at an aggregate 14 Gbps.
	const flowBytes = 1_000_000
	flowsPerSec := 14 * float64(topo.Gbps) / (flowBytes * 8)
	b.replay(&workload.AllToAll{
		RNG:              b.rng.Fork("workload"),
		Srcs:             srcIdx,
		Dsts:             dstIdx,
		CDF:              workload.Fixed(flowBytes),
		MeanInterarrival: sim.Time(float64(sim.Second) / flowsPerSec),
		MaxFlows:         math.MaxInt,
	}, ls.Hosts, math.MaxInt)

	// Warm up, snapshot counters, measure, snapshot again.
	warm := 20 * sim.Millisecond
	meas := 80 * sim.Millisecond
	if o.Scale == ScaleTiny {
		warm, meas = 5*sim.Millisecond, 20*sim.Millisecond
	}
	eng.Run(warm)
	uplinks := ls.UpLinks[0]
	startTCP := make([]int64, len(uplinks))
	startUDP := make([]int64, len(uplinks))
	for i, l := range uplinks {
		startTCP[i] = l.AtoB.TxBytes(netsim.ProtoTCP)
		startUDP[i] = l.AtoB.TxBytes(netsim.ProtoUDP)
	}
	eng.Run(warm + meas)
	o.recordPerf(eng)
	udpSender.Stop()

	perLink := make([]float64, len(uplinks))
	uIdx, uBytes := 0, int64(-1)
	for i, l := range uplinks {
		dTCP := l.AtoB.TxBytes(netsim.ProtoTCP) - startTCP[i]
		dUDP := l.AtoB.TxBytes(netsim.ProtoUDP) - startUDP[i]
		perLink[i] = float64(dTCP) * 8 / meas.Seconds() / float64(topo.Gbps)
		if dUDP > uBytes {
			uBytes, uIdx = dUDP, i
		}
	}
	out.perLink = perLink
	out.tcpOnU = perLink[uIdx]
	if udpSender.Sent > 0 {
		out.udpDelivered = float64(sink.Packets) / float64(udpSender.Sent)
	}
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
