package experiments

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"unicode"

	"flowbender/internal/checkpoint"
	"flowbender/internal/workload"
)

// The one flag binder: fbsim and fbtopo register their run-shaping
// flags here and nowhere else, and share the profile and checkpoint wiring
// that hangs off them.

// RunFlags holds the run-shaping flags as parsed, before they are resolved
// into Options. Numeric flags bind straight into the Options fields they set.
type RunFlags struct {
	o Options

	scale, engine, schemes, faults, cdf string
	verbose                             bool

	ckpt, resume string

	cpuprofile, memprofile string
}

// BindScaleFlag registers -scale alone, for a tool that builds a fabric but
// runs no experiment (fbtopo); read it back with Scale.
func BindScaleFlag(fs *flag.FlagSet) *RunFlags {
	f := &RunFlags{}
	fs.StringVar(&f.scale, "scale", ScaleSmall.String(), fmt.Sprintf("fabric scale: %s, or %s (10k and 102k hosts), which only the fluid engine executes",
		strings.Join(scaleNames(false), ", "), strings.Join(scaleNames(true), ", ")))
	return f
}

// BindRunFlags registers every run-shaping flag on fs; after fs.Parse,
// Options resolves them.
func BindRunFlags(fs *flag.FlagSet) *RunFlags {
	f := BindScaleFlag(fs)
	o := &f.o
	fs.Int64Var(&o.Seed, "seed", 1, "random seed")
	fs.StringVar(&f.engine, "engine", EnginePacket.String(), "simulation engine: packet (per-packet, reference fidelity) or fluid (flow-level fast path; honored by "+
		strings.Join(fluidExperiments(), ", ")+" — other experiments keep the packet engine and so the packet scales)")
	fs.IntVar(&o.FlowCount, "flows", 0, "override per-run flow count")
	fs.IntVar(&o.JobCount, "jobs", 0, "override partition-aggregate job count")
	fs.IntVar(&o.Parallelism, "parallel", 0, "max concurrent simulation points (0 = GOMAXPROCS, 1 = sequential; output is identical either way)")
	fs.IntVar(&o.SolverShards, "solver-shards", 0, "max parallel workers for the fluid engine's incremental rate solver (0/1 = serial; output is bit-identical at any count; -engine fluid only)")
	fs.IntVar(&o.Seeds, "seeds", 0, "replicate each point over this many seeds and report mean ± stddev (read by table1, alltoall, partagg, sens-n and sens-t; the other experiments run one seed)")
	fs.StringVar(&f.cdf, "cdf", "", "flow-size CDF file for the all-to-all and production workloads (lines of \"<bytes> <cumulative-prob>\")")
	fs.StringVar(&o.Workload, "workload", "", "production-mix workload for the production experiment: websearch (diurnal arrivals with a load spike) or datamining (Poisson); empty = websearch")
	fs.Float64Var(&o.Load, "load", 0, "offered load of the production and fidelity experiments as a fraction of bisection bandwidth (0 = 0.5 for production, 0.4 for fidelity)")
	fs.StringVar(&f.schemes, "schemes", "", "comma-separated schemes for the production experiment (see fbsim -list-schemes; empty = "+schemeList(DefaultMixSchemes, ",")+")")
	fs.StringVar(&f.faults, "faults", "", "comma-separated fault scenarios for the faults experiment (empty = all; see fbsim -list-faults)")
	fs.DurationVar(&o.Watchdog, "watchdog", 0, "wall-clock limit per simulation point; exceeding points report FAILED instead of hanging the run (0 = off)")
	fs.BoolVar(&f.verbose, "v", false, "log per-run progress (and simulator throughput) to stderr")

	fs.StringVar(&f.ckpt, "checkpoint", "", "make the run crash-safe: journal each completed experiment's output to this file (refuses an existing file; SIGINT/SIGTERM save it and exit 130)")
	fs.StringVar(&f.resume, "resume", "", "resume an interrupted run from this checkpoint file: completed experiments are served from its journal, the rest rerun from the start")

	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&f.memprofile, "memprofile", "", "write a heap profile at exit to this file")
	return f
}

// Scale resolves -scale.
func (f *RunFlags) Scale() (ScaleLevel, error) {
	s, ok := ScaleByName(f.scale)
	if !ok {
		return 0, flagError("scale", f.scale, "unknown scale (want %s)", strings.Join(append(scaleNames(false), scaleNames(true)...), ", "))
	}
	return s, nil
}

// splitList splits a comma-separated flag value, dropping blanks; nil when
// nothing is left.
func splitList(s string) []string {
	if items := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) }); len(items) > 0 {
		return items
	}
	return nil
}

// Options resolves the parsed flags into validated Options.
func (f *RunFlags) Options() (Options, error) {
	o := f.o
	var err error
	if o.Scale, err = f.Scale(); err != nil {
		return o, err
	}
	var ok bool
	if o.Engine, ok = EngineByName(f.engine); !ok {
		return o, flagError("engine", f.engine, "unknown engine (want packet or fluid)")
	}
	for _, name := range splitList(f.schemes) {
		s, ok := SchemeByName(name)
		if !ok {
			return o, flagError("schemes", name, "unknown scheme (see fbsim -list-schemes)")
		}
		o.MixSchemes = append(o.MixSchemes, s)
	}
	o.FaultScenarios = splitList(f.faults)
	if f.cdf != "" {
		file, err := os.Open(f.cdf)
		if err != nil {
			return o, flagError("cdf", f.cdf, "%v", err)
		}
		o.CDF, err = workload.ParseCDF(file)
		file.Close()
		if err != nil {
			return o, flagError("cdf", f.cdf, "%v", err)
		}
	}
	if f.verbose {
		o.Log = os.Stderr
	}
	return o, o.Validate()
}

// Checkpointing reports whether -checkpoint or -resume was given.
func (f *RunFlags) Checkpointing() bool { return f.ckpt != "" || f.resume != "" }

// OpenCheckpoint resolves -checkpoint/-resume under o's descriptor and, when
// either is set, attaches the manager to o and arms the SIGINT/SIGTERM
// handler for the rest of the process (first signal: save, exit 130).
// With neither flag o is untouched.
func (f *RunFlags) OpenCheckpoint(tool string, o *Options) error {
	mgr, err := checkpoint.FromFlags(f.ckpt, f.resume, o.Descriptor(tool))
	if mgr != nil {
		o.Ckpt = mgr
		checkpoint.HandleSignals(mgr, os.Stderr)
	}
	return err
}

// StartProfiles arms -cpuprofile and returns the function that flushes it
// and writes -memprofile, to be called once, when the run is over.
func (f *RunFlags) StartProfiles() (stop func(), err error) {
	var cpu *os.File
	if f.cpuprofile != "" {
		if cpu, err = os.Create(f.cpuprofile); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if f.memprofile == "" {
			return
		}
		mem, err := os.Create(f.memprofile)
		if err == nil {
			defer mem.Close()
			runtime.GC()
			err = pprof.WriteHeapProfile(mem)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}, nil
}
