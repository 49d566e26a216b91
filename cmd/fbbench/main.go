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
// whole run, in any mode (see EXPERIMENTS.md for the workflow).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"flowbender/internal/benchkit"
	"flowbender/internal/checkpoint"
	"flowbender/internal/experiments"
	"flowbender/internal/sim"
)

// ckptSettle is how long the signal handler waits after requesting a flush
// before saving and exiting: long enough for running points to reach their
// next quiescent barrier and mark, short enough that ^C still feels prompt.
const ckptSettle = 1500 * time.Millisecond

func main() {
	var (
		seed     = flag.Int64("seed", 1, "random seed")
		scale    = flag.String("scale", "small", "fabric scale: tiny, small, paper")
		engineF  = flag.String("engine", "packet", "simulation engine for the evaluation run and -json experiment timings: packet or fluid (experiments without a fluid path run packet regardless)")
		parallel = flag.Int("parallel", 0, "max concurrent simulation points (0 = GOMAXPROCS, 1 = sequential; output is identical either way)")
		shards   = flag.Int("shards", 0, "split each ECMP simulation point across this many engine shards (0/1 = serial; output is identical at any count)")
		seeds    = flag.Int("seeds", 0, "replicate each point over this many seeds and report mean ± stddev")
		watchdog = flag.Duration("watchdog", 0, "wall-clock limit per simulation point; exceeding points report FAILED instead of hanging the run (0 = off)")
		verb     = flag.Bool("v", false, "log per-run progress to stderr")

		ckptPath  = flag.String("checkpoint", "", "make the run crash-safe: journal completed experiments and record progress watermarks to this file (refuses an existing file; SIGINT/SIGTERM checkpoint and exit 130)")
		ckptEvery = flag.Duration("checkpoint-every", 0, "virtual-time cadence between checkpoint watermarks (simulated time, not wall clock; 0 = 500ms; must match across -resume)")
		resumeP   = flag.String("resume", "", "resume an interrupted run from this checkpoint file: completed experiments are served from its journal, in-flight points replay and verify their recorded watermarks")

		jsonMode = flag.Bool("json", false, "write a BENCH_<timestamp>.json benchmark snapshot instead of printing tables")
		compare  = flag.Bool("compare", false, "compare the two newest BENCH_*.json snapshots and exit 1 on regression")
		baseline = flag.String("baseline", "", "with -compare: compare the newest snapshot against this file instead of the second-newest")
		scales   = flag.String("scales", "tiny", "comma-separated experiment scales to wall-clock in -json mode")
		outDir   = flag.String("o", ".", "directory for -json output / -compare input")
		tol      = flag.Float64("tol", 0.10, "fractional regression tolerance for -compare")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	stopProf, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbbench:", err)
		os.Exit(1)
	}
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}

	if (*ckptPath != "" || *resumeP != "") && (*jsonMode || *compare) {
		fmt.Fprintln(os.Stderr, "fbbench: -checkpoint/-resume apply to the evaluation run, not -json/-compare modes")
		exit(2)
	}
	engine, ok := experiments.EngineByName(*engineF)
	if !ok {
		fmt.Fprintln(os.Stderr, "fbbench: engine must be packet or fluid")
		exit(2)
	}
	switch {
	case *compare:
		exit(runCompare(*outDir, *baseline, *tol))
	case *jsonMode:
		exit(runJSON(*outDir, *scales, *seed, *parallel, *shards, engine))
	}

	o := experiments.Options{Seed: *seed, Parallelism: *parallel, Shards: *shards, Seeds: *seeds, Watchdog: *watchdog, Engine: engine}
	sc, ok := parseScale(*scale)
	if !ok {
		fmt.Fprintln(os.Stderr, "fbbench: scale must be tiny, small, or paper")
		exit(2)
	}
	o.Scale = sc
	if *verb {
		o.Log = os.Stderr
	}

	desc := checkpoint.Descriptor{
		Tool:            "fbbench",
		Seed:            *seed,
		Scale:           *scale,
		Shards:          *shards,
		Seeds:           *seeds,
		CheckpointEvery: int64(*ckptEvery),
	}
	// Legacy checkpoints carry no engine tag and mean the packet engine.
	if engine != experiments.EnginePacket {
		desc.Extra = "engine=" + engine.String()
	}
	mgr, err := checkpoint.FromFlags(*ckptPath, *resumeP, desc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbbench:", err)
		exit(2)
	}
	if mgr != nil {
		o.Ckpt = mgr
		o.CheckpointEvery = sim.Time(*ckptEvery)
		stop := checkpoint.HandleSignals(mgr, os.Stderr, ckptSettle)
		defer stop()
	}

	start := time.Now()
	fmt.Printf("FlowBender reproduction — full evaluation (scale=%s seed=%d)\n\n", *scale, *seed)
	experiments.RunAll(o, os.Stdout)
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Second))
	if mgr != nil {
		if err := mgr.SaveErr(); err != nil {
			fmt.Fprintln(os.Stderr, "fbbench: checkpoint:", err)
		}
	}
	exit(0)
}

// startProfiles arms the requested pprof outputs and returns a function that
// flushes them; it is safe to call the stop function multiple times.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fbbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fbbench:", err)
			}
		}
	}, nil
}

func parseScale(s string) (experiments.ScaleLevel, bool) {
	switch s {
	case "tiny":
		return experiments.ScaleTiny, true
	case "small":
		return experiments.ScaleSmall, true
	case "paper":
		return experiments.ScalePaper, true
	}
	return 0, false
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
// scale, then writes the snapshot. The experiment timings run under the given
// engine and the snapshot records which, so -compare can refuse cross-engine
// diffs; the micro-benchmarks are engine-independent and always included.
func runJSON(dir, scaleList string, seed int64, parallel, shards int, engine experiments.EngineKind) int {
	snap := benchkit.NewSnapshot(runtime.Version(), seed)
	snap.Shards = shards
	snap.Engine = engine.String()

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

	for _, sc := range strings.Split(scaleList, ",") {
		sc = strings.TrimSpace(sc)
		if sc == "" {
			continue
		}
		level, ok := parseScale(sc)
		if !ok {
			fmt.Fprintf(os.Stderr, "fbbench: unknown scale %q in -scales\n", sc)
			return 2
		}
		snap.Scales = append(snap.Scales, sc)
		for _, e := range experiments.Registry {
			fmt.Fprintf(os.Stderr, "fbbench: timing %s at %s ...\n", e.Name, sc)
			prefix := fmt.Sprintf("exp_%s_%s", e.Name, sc)
			// Same best-of-N folding as the micro-benchmarks: one run's
			// wall clock is hostage to whatever else the machine is doing.
			for round := 0; round < expRounds; round++ {
				var perf experiments.PerfStats
				o := experiments.Options{Seed: seed, Scale: level, Parallelism: parallel, Shards: shards, Perf: &perf, Engine: engine}
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
	if engine != experiments.EnginePacket {
		shardCounts = nil
	}
	for _, s := range shardCounts {
		fmt.Fprintf(os.Stderr, "fbbench: timing paper all-to-all at shards=%d ...\n", s)
		prefix := fmt.Sprintf("exp_paper_a2a_ecmp_shards%d", s)
		for round := 0; round < expRounds; round++ {
			var perf experiments.PerfStats
			o := experiments.Options{Seed: seed, Scale: experiments.ScalePaper, Shards: s, Perf: &perf}
			start := time.Now()
			experiments.ShardBench(o, 0.6, shardBenchFlows)
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
