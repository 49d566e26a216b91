// Incast: the partition-aggregate pattern of §4.2.4 — a 1 MB transaction
// fanned out to n workers that all respond at once to one aggregator. The
// job is done when its slowest response lands, so load balancing the
// synchronized responses directly shortens job completion.
//
//	go run ./examples/incast [-fanin 8] [-jobs 60] [-load 0.4]
package main

import (
	"flag"
	"fmt"

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
	fanIn := flag.Int("fanin", 8, "workers per job")
	jobs := flag.Int("jobs", 60, "jobs to run")
	load := flag.Float64("load", 0.4, "network load")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	fmt.Printf("Partition-aggregate: %d jobs of 1 MB across %d workers at %.0f%% load\n\n",
		*jobs, *fanIn, *load*100)
	for _, scheme := range []string{"ECMP", "FlowBender"} {
		eng := sim.NewEngine()
		rng := sim.NewRNG(*seed)
		p := topo.SmallScale()
		ft := topo.NewFatTree(eng, p)
		ft.SetSelector(routing.ECMP{})

		cfg := tcp.DefaultConfig()
		if scheme == "FlowBender" {
			cfg.FlowBender = &core.Config{MinEpochGap: 5, DesyncN: true, RNG: rng.Fork("fb")}
		}

		const jobBytes = 1_000_000
		gen := &workload.PartitionAggregate{
			RNG:      rng.Fork("workload"),
			NumHosts: len(ft.Hosts),
			JobBytes: jobBytes,
			FanIn:    *fanIn,
			MeanInterarrival: workload.JobInterarrival(
				*load, p.BisectionBps(), p.InterPodFraction(), jobBytes),
			MaxJobs: *jobs,
		}
		// Each job is one batch: its fan-in responses start in one event.
		var flows []*tcp.Flow
		workload.Replay(eng, gen, false, func(i int, s workload.FlowSpec) {
			flows = append(flows, tcp.StartFlow(eng, cfg, netsim.FlowID(i+1), ft.Hosts[s.SrcIdx], ft.Hosts[s.DstIdx], s.Size))
		})
		eng.Run(30 * sim.Second)

		// Job k is flows [k*fanIn, (k+1)*fanIn); it is done when its slowest
		// response is.
		var jct stats.Sample
		done := 0
		for job := flows; len(job) >= *fanIn; job = job[*fanIn:] {
			last, ok := sim.Time(0), true
			for _, f := range job[:*fanIn] {
				ok = ok && f.Done()
				last = max(last, f.RecvDone)
			}
			if ok {
				done++
				jct.Add((last - job[0].Start).Seconds() * 1000)
			}
		}
		fmt.Printf("%-11s jobs done %d/%d   avg JCT %6.2f ms   p95 %6.2f ms   worst %6.2f ms\n",
			scheme, done, len(flows) / *fanIn, jct.Mean(), jct.Percentile(95), jct.Max())
	}
}
