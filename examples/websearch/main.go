// Websearch: the paper's motivating workload — a latency-sensitive online
// service whose responses aggregate thousands of flows, so tail latency is
// everything. Runs the heavy-tailed all-to-all traffic of §4.2.2 under ECMP
// and FlowBender and reports mean and 99th-percentile latency per flow-size
// bin, like Figures 3 and 4.
//
//	go run ./examples/websearch [-load 0.4] [-flows 800] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/stats"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

func main() {
	load := flag.Float64("load", 0.4, "network load (fraction of bisection)")
	flows := flag.Int("flows", 800, "number of flows to run")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	results := make(map[string]*stats.BinnedSample)
	for _, scheme := range []string{"ECMP", "FlowBender"} {
		eng := sim.NewEngine()
		rng := sim.NewRNG(*seed)

		p := topo.SmallScale()
		ft := topo.NewFatTree(eng, p)
		ft.SetSelector(routing.ECMP{})

		cfg := tcp.DefaultConfig()
		if scheme == "FlowBender" {
			cfg.FlowBender = &core.Config{
				MinEpochGap: 5, DesyncN: true, RNG: rng.Fork("fb"),
			}
		}

		cdf := workload.WebSearchCDF()
		gen := &workload.AllToAll{
			RNG:      rng.Fork("workload"), // same stream for both schemes
			NumHosts: len(ft.Hosts),
			CDF:      cdf,
			MeanInterarrival: workload.AggregateInterarrival(
				*load, p.BisectionBps(), p.InterPodFraction(), cdf.Mean()),
			MaxFlows: *flows,
		}
		var started []*tcp.Flow
		workload.Replay(eng, gen, false, func(i int, s workload.FlowSpec) {
			started = append(started, tcp.StartFlow(eng, cfg, netsim.FlowID(i+1), ft.Hosts[s.SrcIdx], ft.Hosts[s.DstIdx], s.Size))
		})
		eng.Run(30 * sim.Second)

		binned := &stats.BinnedSample{}
		for _, f := range started {
			if f.Done() {
				binned.Add(f.Size, f.FCT().Seconds()*1000)
			}
		}
		results[scheme] = binned
	}

	fmt.Printf("All-to-all web-search workload at %.0f%% load, %d flows\n\n", *load*100, *flows)
	for _, scheme := range []string{"ECMP", "FlowBender"} {
		h := stats.NewHistogram(0.05, 2) // ms buckets
		for b := 0; b < int(stats.NumBins); b++ {
			for _, v := range results[scheme].Bins[b].Values() {
				h.Add(v)
			}
		}
		fmt.Printf("%s flow-completion-time distribution:\n", scheme)
		h.Render(os.Stdout, "ms", 46)
		fmt.Println()
	}
	fmt.Printf("%-14s %19s %19s\n", "", "mean (ms)", "p99 (ms)")
	fmt.Printf("%-14s %9s %9s %9s %9s %9s\n", "flow size", "ECMP", "FlowBndr", "ECMP", "FlowBndr", "speedup@p99")
	for b := 0; b < int(stats.NumBins); b++ {
		e := &results["ECMP"].Bins[b]
		f := &results["FlowBender"].Bins[b]
		fmt.Printf("%-14s %9.2f %9.2f %9.2f %9.2f %9.2fx\n",
			stats.SizeBin(b), e.Mean(), f.Mean(), e.Percentile(99), f.Percentile(99),
			stats.Ratio(e.Percentile(99), f.Percentile(99)))
	}
}
