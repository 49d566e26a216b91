// Hotspot: the §4.3.1 experiment — a pinned 6 Gbps UDP flow creates a
// static hotspot on one of four equal-cost paths between two ToRs while a
// 14 Gbps TCP shuffle shares the same paths. FlowBender's TCP flows sense
// the hotspot through ECN and drift away from it; ECMP's flows stay where
// they hashed.
//
//	go run ./examples/hotspot
package main

import (
	"fmt"
	"math"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/udp"
	"flowbender/internal/workload"
)

func main() {
	for _, scheme := range []string{"ECMP", "FlowBender"} {
		eng := sim.NewEngine()
		rng := sim.NewRNG(3)

		lp := topo.SmallTestbed() // 4 ToRs x 4 spines: 4 paths per ToR pair
		ft := topo.NewFatTree(eng, lp)
		ft.SetSelector(routing.ECMP{})

		cfg := tcp.DefaultConfig()
		if scheme == "FlowBender" {
			cfg.FlowBender = &core.Config{MinEpochGap: 5, DesyncN: true, RNG: rng.Fork("fb")}
		}

		// The pinned hotspot: UDP at 6 Gbps with a fixed path tag.
		srcs, dsts := lp.TorHosts(0, 0), lp.TorHosts(0, 1)
		udpSender := udp.NewSender(eng, 1_000_000, ft.Hosts[srcs[0]], ft.Hosts[dsts[0]], 6*topo.Gbps, 1460)
		ft.Hosts[dsts[0]].Register(1_000_000, udp.NewSink())
		udpSender.Start()

		// The TCP shuffle: 1 MB flows ToR0 -> ToR1 at 14 Gbps aggregate,
		// arriving until the measurement ends.
		gen := &workload.AllToAll{
			RNG: rng.Fork("workload"), Srcs: srcs, Dsts: dsts,
			CDF: workload.Fixed(1_000_000),
			// 14 Gbps of 1 MB (8 Mb) flows = 1750 flows/s.
			MeanInterarrival: sim.Second / 1750,
			MaxFlows:         math.MaxInt,
		}
		workload.Replay(eng, gen, false, func(i int, s workload.FlowSpec) {
			tcp.StartFlow(eng, cfg, netsim.FlowID(i+1), ft.Hosts[s.SrcIdx], ft.Hosts[s.DstIdx], s.Size)
		})

		// Measure per-uplink TCP rates over an 80 ms window after warmup.
		eng.Run(20 * sim.Millisecond)
		base := make([]int64, lp.AggsPerPod)
		baseUDP := make([]int64, lp.AggsPerPod)
		for i, l := range ft.TorAggLinks[0][0] {
			base[i] = l.AtoB.TxBytes(netsim.ProtoTCP)
			baseUDP[i] = l.AtoB.TxBytes(netsim.ProtoUDP)
		}
		const window = 80 * sim.Millisecond
		eng.Run(20*sim.Millisecond + window)
		udpSender.Stop()

		fmt.Printf("%-11s per-path TCP Gbps:", scheme)
		for i, l := range ft.TorAggLinks[0][0] {
			gbps := float64(l.AtoB.TxBytes(netsim.ProtoTCP)-base[i]) * 8 / window.Seconds() / 1e9
			tag := " "
			if l.AtoB.TxBytes(netsim.ProtoUDP)-baseUDP[i] > 0 {
				tag = "*" // the hotspot path carrying the UDP flow
			}
			fmt.Printf("  %5.2f%s", gbps, tag)
		}
		fmt.Println("   (* = path with the 6 Gbps UDP hotspot)")
	}
	fmt.Println("\nA good balancer keeps the starred path's TCP share far below the others'.")
}
