// Command fbsim runs a single FlowBender reproduction experiment.
//
// Usage:
//
//	fbsim -exp alltoall -scale small -seed 1 -v
//	fbsim -exp faults -faults cut,flap10ms,gray1 -scale small
//	fbsim -list
//
// Each experiment regenerates one table or figure of the paper (see
// DESIGN.md for the experiment index). The run-shaping flags (-scale,
// -engine, -seed, -checkpoint, ...) are the ones fbbench takes too: both
// bind them through experiments.BindRunFlags.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"flowbender/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "", "experiment name (see -list)")
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

	entry, ok := experiments.Lookup(*exp)
	if !ok {
		refuse(fmt.Errorf("unknown experiment %q (use -list)", *exp))
	}
	o, err := rf.Options()
	if err == nil {
		err = entry.CheckScale(o)
	}
	if err == nil && rf.Checkpointing() && *asJSON {
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
	mgr := o.Ckpt
	if mgr != nil {
		// Journal hit: the resumed file already holds this experiment's
		// completed output — serve it without simulating anything.
		if ent, ok := mgr.Done(*exp); ok {
			fmt.Fprintf(os.Stderr, "fbsim: %s served from checkpoint journal (%s)\n", *exp, mgr.Path())
			fmt.Print(ent.Output)
			exit(0)
		}
	}

	var perf experiments.PerfStats
	o.Perf = &perf
	start := time.Now()
	res, err := runProtected(entry.Run, o)
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fbsim: experiment %s failed: %v\n", *exp, err)
		exit(1)
	}
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
	// Render to a buffer so the journal records exactly the bytes the user
	// sees; a rerun with -resume then serves them verbatim.
	var buf bytes.Buffer
	res.Print(&buf)
	if mgr != nil {
		mgr.RecordDone(*exp, buf.String())
		if err := mgr.SaveErr(); err != nil {
			fmt.Fprintln(os.Stderr, "fbsim: checkpoint:", err)
		}
	}
	os.Stdout.Write(buf.Bytes())
	exit(0)
}

// runProtected converts a panicking experiment into an error exit with a
// message, instead of a bare crash: individual simulation points are
// already recovered inside the harness, so this only catches failures in
// the experiment driver itself.
func runProtected(run func(experiments.Options) experiments.Printable, o experiments.Options) (res experiments.Printable, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return run(o), nil
}
