package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// bedExperiments are the registry entries no byteident golden covers: the
// testbed experiments, partition-aggregate and the fault experiments.
var bedExperiments = []string{"testbed", "wcmp", "hotspot", "partagg", "linkfailure", "udpspray", "faults"}

// renderBed runs one of bedExperiments at tiny scale on engine and returns
// its table followed by the engine events it executed. The fault matrix runs
// three scenarios, the slice its byteident golden runs.
func renderBed(t *testing.T, name string, engine EngineKind) string {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	o := Options{Seed: 1, Scale: ScaleTiny, Engine: engine, FlowCount: 10, JobCount: 5, Parallelism: 2, Perf: &PerfStats{},
		FaultScenarios: []string{"cut", "flap10ms", "gray1"}}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "==== %s\n", name)
	e.Run(o).Print(&buf)
	fmt.Fprintf(&buf, "events %d\n", o.Perf.Events.Load())
	return buf.String()
}

// TestBedGolden pins what bedExperiments print at tiny scale and the engine
// events they execute, so a change to how their arrivals are filed must keep
// both — the event count catches a moved or missing beacon that a table would
// round away. Cheap enough (~0.4 s) to run under -short.
func TestBedGolden(t *testing.T) {
	var all strings.Builder
	for _, name := range bedExperiments {
		all.WriteString(renderBed(t, name, EnginePacket))
	}
	checkGolden(t, "bed_tiny", all.String())
}

// TestBedExperimentsIgnoreFluidEngine: none of bedExperiments has a fluid
// form — each arms its fabric or injects a setup, or (testbed and
// partition-aggregate) takes no fluid completions — so -engine fluid must
// leave every table and event count exactly as the packet engine has them.
func TestBedExperimentsIgnoreFluidEngine(t *testing.T) {
	for _, name := range bedExperiments {
		if got, want := renderBed(t, name, EngineFluid), renderBed(t, name, EnginePacket); got != want {
			t.Errorf("%s under -engine fluid:\n%s\nunder -engine packet:\n%s", name, got, want)
		}
	}
}

// wcmp runs half the run's flows; at -flows 1 that must be one flow, not a
// count of zero that an unbounded arrival stream never reaches.
func TestWCMPOneFlowEnds(t *testing.T) {
	o := Options{Seed: 1, Scale: ScaleTiny, FlowCount: 1, Parallelism: 2, Perf: &PerfStats{}}
	var res *WCMPResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = WCMP(o)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("wcmp with FlowCount 1 still running after 30 s")
	}
	for i, v := range res.Variants {
		if !(res.MeanMs[i] > 0) {
			t.Errorf("%s: mean FCT %v, want one completed flow", v.Name, res.MeanMs[i])
		}
	}
	// One 1 MB flow per variant is tens of thousands of events, not millions.
	if ev := o.Perf.Events.Load(); ev > 200_000 {
		t.Errorf("%d events for five one-flow points", ev)
	}
}
