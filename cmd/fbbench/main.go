// Command fbbench regenerates every table and figure of the paper's
// evaluation in one run and prints them in order, suitable for diffing
// against EXPERIMENTS.md.
//
// Usage:
//
//	fbbench [-scale small] [-engine packet|fluid] [-seed 1] [-v]
//
// Benchmark-trajectory modes:
//
//	fbbench -json [-scales tiny] [-o .]   write a BENCH_<timestamp>.json
//	                                      snapshot: engine ns/event,
//	                                      ns/packet-hop, allocs/op,
//	                                      wall-clock and simulator
//	                                      throughput (events/sec) per
//	                                      experiment at each listed scale
//	fbbench -compare [-o .] [-tol 0.10]   diff the two newest snapshots and
//	                                      exit 1 on any headline metric
//	                                      regressing past the tolerance;
//	                                      -baseline <file> pins the old side
//	                                      to a specific snapshot instead
//
// Profiling: -cpuprofile / -memprofile write pprof profiles covering the
// whole run, in any mode (see EXPERIMENTS.md for the workflow). The
// run-shaping flags are fbsim's: both tools bind them through
// experiments.BindRunFlags, so `fbbench -h` lists them all.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"flowbender/internal/benchkit"
	"flowbender/internal/experiments"
)

func main() {
	var (
		jsonMode = flag.Bool("json", false, "write a BENCH_<timestamp>.json benchmark snapshot instead of printing tables")
		compare  = flag.Bool("compare", false, "compare the two newest BENCH_*.json snapshots and exit 1 on regression")
		baseline = flag.String("baseline", "", "with -compare: compare the newest snapshot against this file instead of the second-newest")
		scales   = flag.String("scales", "tiny", "comma-separated experiment scales to wall-clock in -json mode")
		outDir   = flag.String("o", ".", "directory for -json output / -compare input")
		tol      = flag.Float64("tol", 0.10, "fractional regression tolerance for -compare")
	)
	rf := experiments.BindRunFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := rf.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbbench:", err)
		os.Exit(1)
	}
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}
	// refuse ends the run on a setting no run accepts: one line, exit 2.
	refuse := func(err error) {
		fmt.Fprintln(os.Stderr, "fbbench:", err)
		exit(2)
	}

	if rf.Checkpointing() && (*jsonMode || *compare) {
		refuse(fmt.Errorf("-checkpoint/-resume apply to the evaluation run, not -json/-compare modes"))
	}
	o, err := rf.Options()
	if err != nil {
		refuse(err)
	}
	switch {
	case *compare:
		exit(runCompare(*outDir, *baseline, *tol))
	case *jsonMode:
		exit(runJSON(*outDir, *scales, o))
	}

	if err := checkScale(o); err != nil {
		refuse(err)
	}
	if err := rf.OpenCheckpoint("fbbench", &o); err != nil {
		refuse(err)
	}

	start := time.Now()
	fmt.Printf("FlowBender reproduction — full evaluation (scale=%s seed=%d)\n\n", o.Scale, o.Seed)
	experiments.RunAll(o, os.Stdout)
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Second))
	if o.Ckpt != nil {
		if err := o.Ckpt.SaveErr(); err != nil {
			fmt.Fprintln(os.Stderr, "fbbench: checkpoint:", err)
		}
	}
	exit(0)
}

// checkScale asks every registered experiment whether it can run at o.Scale;
// the suite runs them all, so the first refusal refuses the run.
func checkScale(o experiments.Options) error {
	for _, e := range experiments.Registry {
		if err := e.CheckScale(o); err != nil {
			return err
		}
	}
	return nil
}

// expRounds is how many times each experiment is wall-clocked in -json mode;
// the best round of each metric goes into the snapshot (see Snapshot.Fold).
const expRounds = 3

// shardBenchFlows is the flow count of the paper-scale sharded benchmark
// point: large enough that the 128-server fabric reaches steady state and
// the bounded-lag barriers amortize, small enough that three rounds at two
// shard counts stay affordable on a laptop-class box.
const shardBenchFlows = 800

// fluidBenchFlows is the flow count of the fluid-engine micro-benchmark: a
// full tiny-scale all-to-all per op, large enough that solver re-solves (not
// setup) dominate.
const fluidBenchFlows = 2000

// runJSON measures the hot-path micro-benchmarks and the wall clock plus
// simulator throughput of every registered experiment at each requested
// scale, then writes the snapshot. The experiment timings run under o — its
// scale replaced by each listed one — and the snapshot records the engine, so
// -compare can refuse cross-engine diffs; the micro-benchmarks are
// engine-independent and always included.
func runJSON(dir, scaleList string, o experiments.Options) int {
	snap := benchkit.NewSnapshot(runtime.Version(), o.Seed)
	snap.Shards = o.Shards
	snap.Engine = o.Engine.String()

	var levels []experiments.ScaleLevel
	for _, sc := range strings.Split(scaleList, ",") {
		if sc = strings.TrimSpace(sc); sc == "" {
			continue
		}
		level, ok := experiments.ScaleByName(sc)
		if !ok {
			fmt.Fprintf(os.Stderr, "fbbench: -scales %s: unknown scale\n", sc)
			return 2
		}
		o.Scale = level
		if err := checkScale(o); err != nil {
			fmt.Fprintln(os.Stderr, "fbbench:", err)
			return 2
		}
		levels = append(levels, level)
		snap.Scales = append(snap.Scales, sc)
	}

	fmt.Fprintln(os.Stderr, "fbbench: measuring engine_schedule ...")
	snap.Measure("engine_schedule", benchkit.EngineSchedule)
	fmt.Fprintln(os.Stderr, "fbbench: measuring packet_hop ...")
	snap.Measure("packet_hop", benchkit.PacketHop)
	fmt.Fprintln(os.Stderr, "fbbench: measuring tcp_transfer_10mb ...")
	snap.Measure("tcp_transfer_10mb", func(b *testing.B) { benchkit.TCPTransfer(b, 10_000_000) })
	fmt.Fprintln(os.Stderr, "fbbench: measuring fluid_a2a ...")
	snap.Measure(fmt.Sprintf("fluid_a2a_%d", fluidBenchFlows),
		func(b *testing.B) { benchkit.FluidAllToAll(b, fluidBenchFlows) })
	fmt.Fprintln(os.Stderr, "fbbench: measuring fluid_a2a_flowbender ...")
	snap.Measure(fmt.Sprintf("fluid_a2a_flowbender_%d", fluidBenchFlows),
		func(b *testing.B) { benchkit.FluidAllToAllFlowBender(b, fluidBenchFlows) })
	// Every flow sprayed: commits take the solver's general component loop,
	// which the entries above (single-session shortcuts) never enter.
	fmt.Fprintln(os.Stderr, "fbbench: measuring fluid_a2a_spray ...")
	snap.Measure(fmt.Sprintf("fluid_a2a_spray_%d", fluidBenchFlows),
		func(b *testing.B) { benchkit.FluidAllToAllSpray(b, fluidBenchFlows) })
	// Solver-shards sweep: the same fluid point with the component-parallel
	// solve engaged. Results are bit-identical to serial at any count; the
	// sweep prices the dispatch (a win only materializes on a multi-core
	// box — see the snapshot's gomaxprocs/cpu metadata for what this run
	// actually had).
	for _, s := range []int{1, 2, 4, 8} {
		fmt.Fprintf(os.Stderr, "fbbench: measuring fluid_a2a solver-shards=%d ...\n", s)
		s := s
		snap.Measure(fmt.Sprintf("fluid_a2a_%d_sshards%d", fluidBenchFlows, s),
			func(b *testing.B) { benchkit.FluidAllToAllShards(b, fluidBenchFlows, s) })
	}

	for _, level := range levels {
		o.Scale = level
		sc := level.String()
		for _, e := range experiments.Registry {
			fmt.Fprintf(os.Stderr, "fbbench: timing %s at %s ...\n", e.Name, sc)
			prefix := fmt.Sprintf("exp_%s_%s", e.Name, sc)
			// Same best-of-N folding as the micro-benchmarks: one run's
			// wall clock is hostage to whatever else the machine is doing.
			for round := 0; round < expRounds; round++ {
				var perf experiments.PerfStats
				o.Perf = &perf
				start := time.Now()
				e.Run(o)
				wall := time.Since(start)
				snap.Fold(prefix+"_wall_ms", float64(wall.Microseconds())/1000)
				snap.Fold(prefix+"_events_per_sec", perf.EventsPerSec(wall))
				snap.Fold(prefix+"_simsec_per_wallsec", perf.SimSecPerWallSec(wall))
				snap.Fold(prefix+"_flows_per_sec", perf.FlowsPerSec(wall))
			}
		}
	}

	// Paper-scale sharded-engine benchmark: the same 128-server all-to-all
	// point, serial and split four and eight ways. The shards-N/shards-1
	// wall-clock ratio is the conservative-parallel engine's headline speedup
	// (it only materializes on a multi-core box — see the snapshot's
	// gomaxprocs/cpu metadata for what this run actually had). Sharding is a
	// packet-engine mechanism, so a fluid snapshot skips the sweep.
	shardCounts := []int{1, 4, 8}
	if o.Engine != experiments.EnginePacket {
		shardCounts = nil
	}
	for _, s := range shardCounts {
		fmt.Fprintf(os.Stderr, "fbbench: timing paper all-to-all at shards=%d ...\n", s)
		prefix := fmt.Sprintf("exp_paper_a2a_ecmp_shards%d", s)
		for round := 0; round < expRounds; round++ {
			var perf experiments.PerfStats
			so := experiments.Options{Seed: o.Seed, Scale: experiments.ScalePaper, Shards: s, Perf: &perf}
			start := time.Now()
			experiments.ShardBench(so, 0.6, shardBenchFlows)
			wall := time.Since(start)
			snap.Fold(prefix+"_wall_ms", float64(wall.Microseconds())/1000)
			snap.Fold(prefix+"_events_per_sec", perf.EventsPerSec(wall))
		}
	}

	path, err := snap.Write(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbbench:", err)
		return 1
	}
	fmt.Println(path)
	return 0
}

// runCompare diffs the newest snapshot in dir against the second-newest, or
// against an explicit baseline file when one is given.
func runCompare(dir, baseline string, tol float64) int {
	var olderPath, newerPath string
	var err error
	if baseline != "" {
		olderPath = baseline
		newerPath, err = benchkit.Newest(dir)
		if err == nil && sameFile(olderPath, newerPath) {
			err = fmt.Errorf("newest snapshot %s is the baseline itself; run -json to write a new snapshot first", newerPath)
		}
	} else {
		olderPath, newerPath, err = benchkit.NewestTwo(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbbench:", err)
		return 1
	}
	older, err := benchkit.Load(olderPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbbench:", err)
		return 1
	}
	newer, err := benchkit.Load(newerPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbbench:", err)
		return 1
	}
	if err := benchkit.Comparable(older, newer); err != nil {
		fmt.Fprintf(os.Stderr, "fbbench: refusing to compare %s vs %s: %v\n", olderPath, newerPath, err)
		return 1
	}
	fmt.Printf("comparing %s (old) vs %s (new), tolerance %.0f%%\n", olderPath, newerPath, tol*100)
	regs := benchkit.Compare(older, newer, tol)
	if len(regs) == 0 {
		fmt.Println("OK: no headline metric regressed")
		return 0
	}
	for _, r := range regs {
		fmt.Println("REGRESSION:", r)
	}
	return 1
}

// sameFile reports whether two paths name the same snapshot file.
func sameFile(a, b string) bool {
	ia, errA := os.Stat(a)
	ib, errB := os.Stat(b)
	if errA != nil || errB != nil {
		return a == b
	}
	return os.SameFile(ia, ib)
}
