// Quickstart: build a small fat-tree, race two long TCP flows that ECMP
// would leave colliding on one path, and watch FlowBender disperse them.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
)

func main() {
	for _, useFlowBender := range []bool{false, true} {
		name := "ECMP      "
		if useFlowBender {
			name = "FlowBender"
		}

		// One engine per run: a deterministic discrete-event clock.
		eng := sim.NewEngine()
		rng := sim.NewRNG(7)

		// A 64-server fat-tree: 4 pods, non-oversubscribed ToRs, 4 paths
		// between pods, 10 Gbps access links, 90 us inter-pod RTT.
		ft := topo.NewFatTree(eng, topo.SmallScale())
		ft.SetSelector(routing.ECMP{}) // FlowBender rides plain ECMP switches

		// The transport: DCTCP over NewReno, per the paper's evaluation.
		cfg := tcp.DefaultConfig()
		if useFlowBender {
			// The entire host-side change: attach a FlowBender controller.
			cfg.FlowBender = &core.Config{
				T:           0.05, // reroute when >5% of ACKs are ECN-marked...
				N:           1,    // ...for 1 consecutive RTT
				NumValues:   8,    // V drawn from 8 values
				MinEpochGap: 5,    // §5.1 stability: >=5 RTTs between reroutes
				DesyncN:     true, // §3.4.2: randomize N to avoid reroute waves
				RNG:         rng.Fork("flowbender"),
			}
		}

		// Start 8 x 50 MB flows from the servers of one ToR to the servers
		// of another ToR in a different pod. With 4 inter-pod paths, the
		// best case is 2 flows per path: 80 ms each.
		var flows []*tcp.Flow
		src := ft.P.TorHosts(0, 0)
		dst := ft.P.TorHosts(1, 0)
		for i := 0; i < 8; i++ {
			f := tcp.StartFlow(eng, cfg, netsim.FlowID(i+1),
				ft.Hosts[src[i%len(src)]], ft.Hosts[dst[i%len(dst)]], 50_000_000)
			flows = append(flows, f)
		}

		eng.Run(10 * sim.Second)

		var sum, max float64
		reroutes := int64(0)
		for _, f := range flows {
			fct := f.FCT().Seconds() * 1000
			sum += fct
			if fct > max {
				max = fct
			}
			reroutes += f.FlowBenderStats().Reroutes
		}
		fmt.Printf("%s  mean FCT %6.1f ms   max FCT %6.1f ms   (ideal 80 ms, reroutes=%d)\n",
			name, sum/float64(len(flows)), max, reroutes)
	}
}
