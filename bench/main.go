// Command bench is the repository's benchmark: five simulator workloads
// driven through the public experiment entry points, host-time end-to-end
// metrics measured with tracing off, and a separate traced run that reports
// per-layer metrics from spans recorded around this program's own calls into
// each layer. BENCHMARK.json at the repository root declares what it emits;
// README.md in this directory explains every metric and workload.
//
//	go run ./bench -workload packet-a2a -seed 1 -seconds 18 -trace 0
//	go run ./bench -all -trace 1            # every workload, traced run too
//	go run ./bench -calibrate               # quartiles per end-to-end metric
//	go run ./bench -compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// maxProcs pins the scheduler: every workload runs single-threaded except
// suite-tiny, which uses both.
const maxProcs = 2

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: packet-a2a, packet-mix, fluid-a2a, fluid-mix or suite-tiny")
		seed      = flag.Int64("seed", 1, "workload seed for the first set-up pass and the mirror points")
		seconds   = flag.Float64("seconds", 18, "measuring time of an untraced run")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		all       = flag.Bool("all", false, "run every workload, each in its own process, and print one record per run")
		calibrate = flag.Bool("calibrate", false, "like -all, but print the quartiles of every end-to-end metric; with record files as arguments, summarise those instead of running")
		compare   = flag.Bool("compare", false, "compare two record files: -compare old.jsonl new.jsonl")
		runs      = flag.Int("runs", 0, "with -all or -calibrate: runs per workload, at seeds seed, seed+1, ... (0: 1 for -all, 5 for -calibrate)")
		declPath  = flag.String("decl", "BENCHMARK.json", "the benchmark declaration to check emitted metrics against")
		outDir    = flag.String("out", ".bench_out", "directory for span files and probe scratch")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare old.jsonl new.jsonl")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *declPath)
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *calibrate && flag.NArg() > 0:
		var recs []record
		for _, path := range flag.Args() {
			r, err := readRecords(path)
			if err != nil {
				fatalf("%v", err)
			}
			recs = append(recs, r...)
		}
		if err := writeCalibration(os.Stdout, recs, *declPath); err != nil {
			fatalf("%v", err)
		}
	case *all || *calibrate:
		n := *runs
		if n == 0 && *calibrate {
			n = 5
		} else if n == 0 {
			n = 1
		}
		recs, err := runChildren(*seed, n, *seconds, *trace == 1 && !*calibrate, *declPath, *outDir)
		if err != nil {
			fatalf("%v", err)
		}
		if *calibrate {
			err = writeCalibration(os.Stdout, recs, *declPath)
		} else {
			err = writeRecords(os.Stdout, recs)
		}
		if err != nil {
			fatalf("%v", err)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q; see -h", *name)
		}
		c := runConfig{w: w, seed: *seed, seconds: *seconds, frac: 1, declPath: *declPath, outDir: *outDir, log: os.Stderr}
		var res result
		var digest string
		if *trace == 1 {
			var err error
			if res, digest, err = runTraced(c); err != nil {
				fatalf("%v", err)
			}
		} else {
			res, digest = runUntraced(c)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("%v", err)
		}
		// The digest is not a metric: it pins the simulated output, so a
		// change that only claims speed must leave it equal to its parent's.
		fmt.Printf("result_digest %s\n%s\n", digest, line)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
