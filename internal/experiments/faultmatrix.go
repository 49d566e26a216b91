package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"flowbender/internal/faults"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
)

// faultScenario is one named chaos scenario of the matrix: a declarative
// fault plan built from the run's fault time and deadline.
type faultScenario struct {
	name string
	desc string
	plan func(failAt, deadline sim.Time) faults.Plan
}

// faultTarget is the cable every scenario stresses: pod 0's first
// aggregation-to-core uplink, the same cable the linkfailure experiment
// cuts, so the two experiments are directly comparable.
const faultTarget = "aggcore:0/0/0"

// faultScenarios is the scenario suite, in presentation order.
var faultScenarios = []faultScenario{
	{"cut", "clean bidirectional cable cut, never restored",
		func(failAt, _ sim.Time) faults.Plan {
			return faults.Plan{Events: []faults.Event{faults.Cut(failAt, faultTarget)}}
		}},
	{"halfopen", "one direction cut: traffic enters, ACKs never return",
		func(failAt, _ sim.Time) faults.Plan {
			return faults.Plan{Events: []faults.Event{
				faults.HalfOpenCut(failAt, faultTarget, faults.AtoB)}}
		}},
	{"flap10ms", "cable flaps down/up every 10 ms (±20% jitter) for a quarter of the run",
		func(failAt, deadline sim.Time) faults.Plan {
			return faults.Plan{Events: []faults.Event{faults.FlapLink(
				failAt, faultTarget, 10*sim.Millisecond, 10*sim.Millisecond, 0.2, deadline/4)}}
		}},
	{"flap100ms", "cable flaps down/up every 100 ms (±20% jitter) for a quarter of the run",
		func(failAt, deadline sim.Time) faults.Plan {
			return faults.Plan{Events: []faults.Event{faults.FlapLink(
				failAt, faultTarget, 100*sim.Millisecond, 100*sim.Millisecond, 0.2, deadline/4)}}
		}},
	{"gray01", "gray failure: cable silently drops 0.1% of packets",
		func(failAt, _ sim.Time) faults.Plan {
			return faults.Plan{Events: []faults.Event{faults.Gray(failAt, faultTarget, 0.001)}}
		}},
	{"gray1", "gray failure: cable silently drops 1% of packets",
		func(failAt, _ sim.Time) faults.Plan {
			return faults.Plan{Events: []faults.Event{faults.Gray(failAt, faultTarget, 0.01)}}
		}},
	{"degrade25", "cable degraded to 25% of its line rate",
		func(failAt, _ sim.Time) faults.Plan {
			return faults.Plan{Events: []faults.Event{
				faults.DegradeLink(failAt, faultTarget, 0.25)}}
		}},
}

// FaultScenarioNames lists the selectable fault scenarios (for -faults).
func FaultScenarioNames() []string {
	names := make([]string, len(faultScenarios))
	for i, s := range faultScenarios {
		names[i] = s.name
	}
	return names
}

// PrintFaultScenarios renders the scenario suite (fbsim -list-faults).
func PrintFaultScenarios(w io.Writer) {
	fmt.Fprintf(w, "available fault scenarios (for -exp faults -faults ...), each on cable %s:\n", faultTarget)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, sc := range faultScenarios {
		fmt.Fprintf(tw, "  %s\t%s\n", sc.name, sc.desc)
	}
	tw.Flush()
}

// FaultCell is one (scenario, scheme) measurement.
type FaultCell struct {
	Total     int // flows started
	Completed int // finished before the deadline
	Affected  int // flows that saw at least one RTO
	// MeanAffectedFCTms is the mean completion time of affected flows that
	// did complete (NaN when none did).
	MeanAffectedFCTms float64
	// MeanRecoveryMs averages the per-flow time-to-recover episodes (first
	// post-fault RTO to the next delivered ACK).
	MeanRecoveryMs float64
	// Reroutes counts FlowBender path re-draws across all flows.
	Reroutes int64
	// GrayDrops counts packets silently lost on the faulted cable.
	GrayDrops int64
	// FlapTransitions counts the faulted cable's down/up state changes
	// (per direction, summed).
	FlapTransitions int64
	// Err is non-empty when the point failed (panic, watchdog, bad plan)
	// instead of producing a measurement.
	Err string
}

// FaultMatrixResult is the scenario x scheme comparison.
type FaultMatrixResult struct {
	FlowBytes int64
	FailAt    sim.Time
	Deadline  sim.Time

	Scenarios []string // row order
	Schemes   []Scheme // column order
	Cells     map[string]map[Scheme]FaultCell
}

// faultPoint is one simulation point of the matrix.
type faultPoint struct {
	scenario faultScenario
	scheme   Scheme
}

// FaultMatrix runs the chaos-scenario suite: every fault scenario crossed
// with the full scheme comparison set, measuring completion rate,
// affected-flow FCT, time-to-recover, and reroute counts. Points run in
// parallel on the pool; a point that panics or trips the watchdog is
// reported as a failed cell and the rest of the matrix still completes.
func FaultMatrix(o Options) *FaultMatrixResult {
	res := &FaultMatrixResult{
		FlowBytes: 10_000_000,
		FailAt:    1 * sim.Millisecond,
		Deadline:  2 * sim.Second,
		Schemes:   AllSchemes,
		Cells:     make(map[string]map[Scheme]FaultCell),
	}
	if o.Scale == ScaleTiny {
		res.FlowBytes = 1_000_000
	}
	scenarios := selectScenarios(o.FaultScenarios)
	var points []faultPoint
	for _, sc := range scenarios {
		res.Scenarios = append(res.Scenarios, sc.name)
		res.Cells[sc.name] = make(map[Scheme]FaultCell)
		for _, scheme := range res.Schemes {
			points = append(points, faultPoint{scenario: sc, scheme: scheme})
		}
	}
	label := func(pt faultPoint) string { return pt.scenario.name + "/" + pt.scheme.String() }
	outs := runPoints(o, "faults", 1, points, label, res.runOne)
	for i, pt := range points {
		cell := outs[i].Val
		if outs[i].Err != nil {
			cell = FaultCell{Err: outs[i].Err.Error()}
		}
		res.Cells[pt.scenario.name][pt.scheme] = cell
		if cell.Err != "" {
			o.logf("faults: %s/%s FAILED: %s", pt.scenario.name, pt.scheme, cell.Err)
		} else {
			o.logf("faults: %s/%s completed=%d/%d affected=%d recovery=%.1fms",
				pt.scenario.name, pt.scheme, cell.Completed, cell.Total,
				cell.Affected, cell.MeanRecoveryMs)
		}
	}
	return res
}

// selectScenarios filters the suite by name; nil selects everything.
// Options.Validate refuses an unknown -faults name before anything runs, so
// only a library caller (and the failure tests) can pass one here: it becomes
// a placeholder scenario whose runs fail cleanly, a visible FAILED row rather
// than a silent omission.
func selectScenarios(names []string) []faultScenario {
	if len(names) == 0 {
		return faultScenarios
	}
	byName := make(map[string]faultScenario, len(faultScenarios))
	for _, sc := range faultScenarios {
		byName[sc.name] = sc
	}
	var out []faultScenario
	for _, n := range names {
		sc, ok := byName[n]
		if !ok {
			n := n
			sc = faultScenario{name: n, desc: "unknown scenario",
				plan: func(_, _ sim.Time) faults.Plan {
					panic(fmt.Sprintf("unknown fault scenario %q (see -faults usage)", n))
				}}
		}
		out = append(out, sc)
	}
	return out
}

// runOne simulates one (scenario, scheme) point on linkfailure's traffic. It
// reads only the result's scenario constants, never writes, so parallel calls
// are safe.
func (r *FaultMatrixResult) runOne(o Options, pt faultPoint) FaultCell {
	var gray, flaps int64
	out := o.runPodPair(pt.scheme, r.FlowBytes, r.Deadline, func(ft *topo.FatTree, rng *sim.RNG) (func(), error) {
		if err := faults.Apply(ft.Eng, rng.Fork("faults"), ft, pt.scenario.plan(r.FailAt, r.Deadline)); err != nil {
			return nil, err
		}
		return func() {
			dx := ft.AggCoreLinks[0][0][0]
			gray = dx.AtoB.Link.DroppedGray + dx.BtoA.Link.DroppedGray
			flaps = dx.AtoB.Link.Transitions + dx.BtoA.Link.Transitions
		}, nil
	})
	out.GrayDrops, out.FlapTransitions = gray, flaps
	return out.FaultCell
}

// Print renders the matrix.
func (r *FaultMatrixResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Fault matrix: %d MB inter-pod flows, fault on %s at %v, deadline %v\n",
		r.FlowBytes/1_000_000, faultTarget, r.FailAt, r.Deadline)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tscheme\tcompleted\taffected\tFCT(affected)\trecovery\treroutes\tgray\tflaps")
	for _, name := range r.Scenarios {
		for _, s := range r.Schemes {
			c := r.Cells[name][s]
			if c.Err != "" {
				fmt.Fprintf(tw, "%s\t%s\tFAILED: %s\t\t\t\t\t\t\n", name, s, c.Err)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%d\t%s\t%s\t%d\t%d\t%d\n",
				name, s, c.Completed, c.Total, c.Affected,
				ms(c.MeanAffectedFCTms), recoveryMs(c.MeanRecoveryMs),
				c.Reroutes, c.GrayDrops, c.FlapTransitions)
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "  (recovery = mean time from a flow's first post-fault RTO to its next delivered ACK;")
	fmt.Fprintln(w, "   FlowBender re-draws V on RTO, so it recovers within ~RTO where static ECMP stays stuck)")
}

// recoveryMs formats a mean-recovery value; 0 means no RTO episodes at all.
func recoveryMs(v float64) string {
	if v == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f ms", v)
}
