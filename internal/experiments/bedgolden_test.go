package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// bedExperiments are the registry entries that run on a bed (harness.go)
// rather than through runPoint: no byteident golden covers them.
var bedExperiments = []string{"testbed", "wcmp", "hotspot", "partagg", "linkfailure", "udpspray"}

// TestBedGolden pins what the bed experiments print at tiny scale and the
// engine events they execute, so a change to how their arrivals are filed
// must keep both — the event count catches a moved or missing beacon that a
// table would round away. Cheap enough (~0.6 s) to run under -short.
func TestBedGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range bedExperiments {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("no experiment %q", name)
		}
		o := Options{Seed: 1, Scale: ScaleTiny, FlowCount: 10, JobCount: 5, Parallelism: 2, Perf: &PerfStats{}}
		fmt.Fprintf(&buf, "==== %s\n", name)
		e.Run(o).Print(&buf)
		fmt.Fprintf(&buf, "events %d\n", o.Perf.Events.Load())
	}
	checkGolden(t, "bed_tiny", buf.String())
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
