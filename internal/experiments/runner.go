package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"flowbender/internal/runpool"
)

// Printable is implemented by every experiment result.
type Printable interface {
	Print(w io.Writer)
}

// RegistryEntry is one named experiment runner.
type RegistryEntry struct {
	Name string
	Desc string
	// Fluid reports that under EngineFluid the experiment builds no
	// packet-level fabric at Options.Scale: every point goes through the
	// point runner with the scheme's own setup (fidelity instead caps its
	// packet side at paper scale). Only such experiments run at the
	// fluid-only scales; see CheckScale.
	Fluid bool
	Run   func(Options) Printable
}

// Registry maps experiment names (as used by cmd/fbsim -exp) to runners.
var Registry = []RegistryEntry{
	{Name: "table1", Fluid: true,
		Desc: "Table 1: validation, equal elephant flows ToR-to-ToR, ECMP vs FlowBender",
		Run:  func(o Options) Printable { return Table1(o) }},
	{Name: "alltoall", Fluid: true,
		Desc: "Figures 3+4 and §4.2.3: all-to-all latency and out-of-order accounting",
		Run:  func(o Options) Printable { return AllToAll(o) }},
	{Name: "partagg",
		Desc: "Figure 5: partition-aggregate job completion vs fan-in",
		Run:  func(o Options) Printable { return PartitionAggregate(o) }},
	{Name: "sens-n", Fluid: true,
		Desc: "Figure 6: sensitivity to N",
		Run:  func(o Options) Printable { return SensitivityN(o) }},
	{Name: "sens-t", Fluid: true,
		Desc: "Figure 7: sensitivity to T",
		Run:  func(o Options) Printable { return SensitivityT(o) }},
	{Name: "testbed",
		Desc: "Figure 8: leaf-spine testbed latency reduction",
		Run:  func(o Options) Printable { return Testbed(o) }},
	{Name: "hotspot",
		Desc: "§4.3.1: decongesting a pinned-UDP hotspot",
		Run:  func(o Options) Printable { return Hotspot(o) }},
	{Name: "topodep",
		Desc: "§4.3.2: dependence on path diversity",
		Run:  func(o Options) Printable { return TopoDependence(o) }},
	{Name: "linkfailure",
		Desc: "§3.3.2: recovery from a link failure within ~RTO",
		Run:  func(o Options) Printable { return LinkFailure(o) }},
	{Name: "faults",
		Desc: "chaos suite: cuts, flaps, gray drops, degraded links x scheme",
		Run:  func(o Options) Printable { return FaultMatrix(o) }},
	{Name: "wcmp",
		Desc: "§4.3.1: asymmetric fabric, WCMP weights, and FlowBender robustness",
		Run:  func(o Options) Printable { return WCMP(o) }},
	{Name: "production", Fluid: true,
		Desc: "production workloads: empirical size mixes, diurnal arrivals, incast and storage patterns, streaming FCT quantiles",
		Run:  func(o Options) Printable { return ProductionMix(o) }},
	{Name: "fidelity", Fluid: true,
		Desc: "engine cross-validation: packet vs fluid FCT divergence at overlapping scales",
		Run:  func(o Options) Printable { return FidelityMatrix(o) }},
	{Name: "udpspray",
		Desc: "§3.4.3: burst-level path spraying for unreliable transports",
		Run:  func(o Options) Printable { return UDPSpray(o) }},
	{Name: "ablations",
		Desc: "§3.4/§5: FlowBender design-option ablations",
		Run:  func(o Options) Printable { return Ablations(o) }},
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (RegistryEntry, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return RegistryEntry{}, false
}

// fluidExperiments names the registered experiments with a fluid path.
func fluidExperiments() []string {
	var names []string
	for _, e := range Registry {
		if e.Fluid {
			names = append(names, e.Name)
		}
	}
	return names
}

// syncWriter serializes concurrent writes to one underlying writer, so
// progress logs from experiments running in parallel don't interleave
// mid-line (their order across experiments is scheduling-dependent; the
// result tables are not).
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// RunAll executes every registered experiment and prints each result to w
// in registry order. All experiments run concurrently, sharing one worker
// pool bounded by Options.Parallelism, so total simulation concurrency
// stays bounded; each experiment's output is buffered and emitted in
// order, byte-identical to a sequential run. An experiment that fails is
// reported FAILED inline and the rest still complete; once every table is
// printed, the returned error names the experiments that failed.
func RunAll(o Options, w io.Writer) error {
	return runExperiments(o, w, Registry)
}

// runExperiments is RunAll over an explicit registry slice (tests inject
// deliberately crashing experiments through it).
func runExperiments(o Options, w io.Writer, reg []RegistryEntry) error {
	o.sharedPool = runpool.New(o.Parallelism)
	o.sharedPool.SetWatchdog(o.Watchdog)
	if o.Log != nil {
		o.Log = &syncWriter{w: o.Log}
	}
	outs := make([]string, len(reg))
	errs := make([]error, len(reg))
	var wg sync.WaitGroup
	for i, e := range reg {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, outs[i], errs[i] = e.Execute(o); errs[i] != nil {
				outs[i] = fmt.Sprintf("FAILED: %v\n", errs[i])
			}
		}()
	}
	wg.Wait()
	var failed []string
	for i, e := range reg {
		fmt.Fprintf(w, "==== %s — %s ====\n%s\n", e.Name, e.Desc, outs[i])
		if errs[i] != nil {
			failed = append(failed, e.Name)
		}
	}
	if failed != nil {
		return fmt.Errorf("%d of %d experiments failed: %s", len(failed), len(reg), strings.Join(failed, ", "))
	}
	return nil
}

// Execute runs one experiment the way fbsim -exp and RunAll both do. A
// resumed run's journal serves a completed experiment's recorded output
// (content-hash verified) without simulating anything, and res is nil.
// Otherwise the experiment runs and its rendered output is journaled; a
// failure — a point's labelled error, which renders with the label of the run
// that died, or a panic of the experiment itself — comes back as err.
func (e RegistryEntry) Execute(o Options) (res Printable, out string, err error) {
	if o.Ckpt != nil {
		if ent, ok := o.Ckpt.Done(e.Name); ok {
			o.logf("%s: served from checkpoint journal (%s)", e.Name, o.Ckpt.Path())
			return nil, ent.Output, nil
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// errors.As: a point that stood for others arrives wrapped with the
		// schemes it stood for, see runPoints.
		if err, _ = r.(error); err == nil {
			err = fmt.Errorf("%v", r)
		}
		var pe *runpool.PanicError
		if errors.As(err, &pe) {
			o.logf("%s FAILED: %v\n%s", e.Name, err, pe.Stack)
		}
	}()
	res = e.Run(o)
	var buf strings.Builder
	res.Print(&buf)
	if o.Ckpt != nil {
		o.Ckpt.RecordDone(e.Name, buf.String())
	}
	return res, buf.String(), nil
}
