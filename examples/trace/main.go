// Trace: record a FlowBender flow's congestion window, path tag, and the
// hotspot queue it escapes from, as a CSV time series (plot it to watch the
// reroute happen).
//
//	go run ./examples/trace > trace.csv
package main

import (
	"fmt"
	"os"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/trace"
	"flowbender/internal/udp"
)

func main() {
	eng := sim.NewEngine()
	rng := sim.NewRNG(5)

	lp := topo.SmallTestbed()
	ft := topo.NewFatTree(eng, lp)
	ft.SetSelector(routing.ECMP{})

	cfg := tcp.DefaultConfig()
	cfg.FlowBender = &core.Config{MinEpochGap: 5, DesyncN: true, RNG: rng.Fork("fb")}

	srcs, dsts := lp.TorHosts(0, 0), lp.TorHosts(0, 1)

	// A long TCP flow that will, at some point, share a path with the
	// hotspot below and bend away from it.
	flow := tcp.StartFlow(eng, cfg, 1, ft.Hosts[srcs[2]], ft.Hosts[dsts[2]], 80_000_000)

	// A 7 Gbps pinned UDP hotspot arriving 5 ms in, aimed at whichever
	// uplink the TCP flow initially hashed onto so a collision is certain.
	hot := udp.NewSender(eng, 2, ft.Hosts[srcs[0]], ft.Hosts[dsts[0]], 7*topo.Gbps, 1460)
	ft.Hosts[dsts[0]].Register(2, udp.NewSink())
	hot.PathTag = aimAtFlow(ft, flow, hot)
	eng.At(5*sim.Millisecond, hot.Start)

	// Sample everything every 100 us.
	s := trace.NewSampler(eng, 100*sim.Microsecond)
	cwnd := s.Track("cwnd_bytes", func() float64 { return flow.Sender().Cwnd() })
	tag := s.Track("path_tag", func() float64 { return float64(flow.Sender().PathTag()) })
	alpha := s.Track("dctcp_alpha", func() float64 { return flow.Sender().Alpha() })
	queues := make([]*trace.Series, lp.AggsPerPod)
	for i, l := range ft.TorAggLinks[0][0] {
		queues[i] = s.Track(fmt.Sprintf("uplink%d_queue", i), trace.QueueBytes(l.AtoB))
	}
	s.Start()

	eng.Run(80 * sim.Millisecond)
	hot.Stop()
	eng.Run(200 * sim.Millisecond)

	all := append([]*trace.Series{cwnd, tag, alpha}, queues...)
	if err := trace.WriteCSV(os.Stdout, all...); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	st := flow.FlowBenderStats()
	fmt.Fprintf(os.Stderr, "flow done=%v fct=%v reroutes=%d (columns: %d samples x %d series)\n",
		flow.Done(), flowFCT(flow), st.Reroutes, cwnd.Len(), len(all))
}

func flowFCT(f *tcp.Flow) any {
	if !f.Done() {
		return "incomplete"
	}
	return f.FCT()
}

// aimAtFlow warms the simulation up for 1 ms, finds the uplink the TCP flow
// hashed onto (the only one carrying TCP bytes), and returns a UDP path tag
// that the ToR's ECMP hash maps onto the same uplink.
func aimAtFlow(ft *topo.FatTree, flow *tcp.Flow, hot *udp.Sender) uint32 {
	ft.Eng.Run(1 * sim.Millisecond)
	target := -1
	for i, l := range ft.TorAggLinks[0][0] {
		if l.AtoB.TxBytes(netsim.ProtoTCP) > 0 {
			target = i
			break
		}
	}
	if target < 0 {
		return 0
	}
	tor := ft.Tors[0][0]
	up := make([]int32, ft.P.AggsPerPod)
	for i := range up {
		up[i] = int32(ft.P.ServersPerTor + i)
	}
	want := up[target]
	sel := routing.ECMP{}
	for tag := uint32(0); tag < 8; tag++ {
		if sel.Select(tor, hot.Probe(tag), up) == want {
			return tag
		}
	}
	return 0
}
