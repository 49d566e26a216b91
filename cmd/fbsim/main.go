// Command fbsim runs FlowBender reproduction experiments: one, or all of them
// in paper order.
//
// Usage:
//
//	fbsim -exp alltoall -scale small -seed 1 -v
//	fbsim -exp faults -faults cut,flap10ms,gray1 -scale small
//	fbsim -exp all -scale small
//	fbsim -list
//
// Each experiment regenerates one table or figure of the paper (see
// DESIGN.md for the experiment index); -exp all prints every one under a
// "==== name — description ====" header, suitable for diffing against
// EXPERIMENTS.md. The run-shaping flags (-scale, -engine, -seed,
// -checkpoint, ...) are bound through experiments.BindRunFlags, which
// fbtopo shares.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"flowbender/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "", "experiment name (see -list), or all to run every experiment in registry order")
		list   = flag.Bool("list", false, "list available experiments")
		listF  = flag.Bool("list-faults", false, "list available fault scenarios")
		listS  = flag.Bool("list-schemes", false, "list the load-balancing schemes experiments compare")
		asJSON = flag.Bool("json", false, "emit the result as JSON instead of a table")
	)
	rf := experiments.BindRunFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := rf.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbsim:", err)
		os.Exit(1)
	}
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}
	// refuse ends the run on a setting no run accepts: one line, exit 2.
	refuse := func(err error) {
		fmt.Fprintln(os.Stderr, "fbsim:", err)
		exit(2)
	}

	if *listF {
		experiments.PrintFaultScenarios(os.Stdout)
		exit(0)
	}
	if *listS {
		experiments.PrintSchemes(os.Stdout)
		exit(0)
	}
	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.Registry {
			fmt.Printf("  %-12s %s\n", e.Name, e.Desc)
		}
		if *exp == "" && !*list {
			exit(2)
		}
		exit(0)
	}

	entries := experiments.Registry
	if *exp != "all" {
		entry, ok := experiments.Lookup(*exp)
		if !ok {
			refuse(fmt.Errorf("unknown experiment %q (use -list)", *exp))
		}
		entries = []experiments.RegistryEntry{entry}
	}
	o, err := rf.Options()
	for _, e := range entries {
		if err == nil {
			err = e.CheckScale(o)
		}
	}
	switch {
	case err != nil:
	case *asJSON && *exp == "all":
		err = fmt.Errorf("-json renders one experiment's result, not -exp all")
	case *asJSON && rf.Checkpointing():
		// The journal records rendered tables; serving them as JSON would
		// silently change the output format, so the modes don't combine.
		err = fmt.Errorf("-checkpoint/-resume and -json are mutually exclusive")
	}
	if err != nil {
		refuse(err)
	}
	if err := rf.OpenCheckpoint("fbsim:"+*exp, &o); err != nil {
		refuse(err)
	}

	var perf experiments.PerfStats
	o.Perf = &perf
	start := time.Now()
	var res experiments.Printable
	var out string
	if *exp == "all" {
		if err := experiments.RunAll(o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "fbsim:", err)
			exit(1)
		}
	} else if res, out, err = entries[0].Execute(o); err != nil {
		fmt.Fprintf(os.Stderr, "fbsim: experiment %s failed: %v\n", *exp, err)
		exit(1)
	}
	wall := time.Since(start)
	if o.Log != nil {
		fmt.Fprintf(os.Stderr, "fbsim: %d events in %v (%.3g events/sec, %.3g sim-sec/wall-sec)\n",
			perf.Events.Load(), wall.Round(time.Millisecond),
			perf.EventsPerSec(wall), perf.SimSecPerWallSec(wall))
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(os.Stderr, "fbsim: %d flows completed (%.3g flows/sec), peak memory %d MB from OS\n",
			perf.FlowsCompleted.Load(), perf.FlowsPerSec(wall), ms.Sys/(1<<20))
	}
	if *asJSON {
		if err := experiments.WriteJSON(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "fbsim: json:", err)
			exit(1)
		}
		exit(0)
	}
	if o.Ckpt != nil {
		if err := o.Ckpt.SaveErr(); err != nil {
			fmt.Fprintln(os.Stderr, "fbsim: checkpoint:", err)
		}
	}
	os.Stdout.WriteString(out)
	exit(0)
}
