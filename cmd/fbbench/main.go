// Command fbbench regenerates every table and figure of the paper's
// evaluation in one run and prints them in order, suitable for diffing
// against EXPERIMENTS.md.
//
// Usage:
//
//	fbbench [-scale small] [-engine packet|fluid] [-seed 1] [-v]
//
// The run-shaping flags are fbsim's: both tools bind them through
// experiments.BindRunFlags, so `fbbench -h` lists them all. -cpuprofile /
// -memprofile write pprof profiles covering the whole run (see
// EXPERIMENTS.md for the workflow). Speed is measured by the repository
// benchmark (bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"flowbender/internal/experiments"
)

func main() {
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

	o, err := rf.Options()
	if err != nil {
		refuse(err)
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
