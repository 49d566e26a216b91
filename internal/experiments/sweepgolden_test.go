package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sweepExperiments are the all-to-all sweeps no other golden covers: the
// sensitivity figures, the path-diversity comparison, the engine fidelity
// matrix and the design ablations.
var sweepExperiments = []string{"sens-n", "sens-t", "topodep", "fidelity", "ablations"}

// TestSweepGolden pins what sweepExperiments print at tiny scale on both
// engines, and the engine events they execute, the way TestBedGolden does for
// the bed experiments. Cheap enough to run under -short.
func TestSweepGolden(t *testing.T) {
	var all strings.Builder
	for _, name := range sweepExperiments {
		for _, engine := range []EngineKind{EnginePacket, EngineFluid} {
			e, ok := Lookup(name)
			if !ok {
				t.Fatalf("no experiment %q", name)
			}
			o := Options{Seed: 1, Scale: ScaleTiny, Engine: engine, FlowCount: 10, Parallelism: 2, Perf: &PerfStats{}}
			fmt.Fprintf(&all, "==== %s -engine %s\n", name, engine)
			e.Run(o).Print(&all)
			fmt.Fprintf(&all, "events %d\n", o.Perf.Events.Load())
		}
	}
	checkGolden(t, "sweep_tiny", all.String())
}

// TestPointLabelsGolden pins the label of every simulation point a tiny
// RunAll runs: two seeds where an experiment replicates (one for Table 1,
// whose elephants dominate the cost) and one fault scenario. A label is the
// name a FAILED line carries, so the line alone reproduces the run; the
// labels are read off runPoints as it launches each run.
func TestPointLabelsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	var (
		mu   sync.Mutex
		keys []string
	)
	o := Options{Seed: 1, Scale: ScaleTiny, FlowCount: 10, JobCount: 5, Repeats: 1, Seeds: 2, Parallelism: 2,
		FaultScenarios: []string{"gray1"}}
	o.debugPointLabel = func(label string) {
		mu.Lock()
		keys = append(keys, label)
		mu.Unlock()
	}
	var out bytes.Buffer
	if err := RunAll(o, &out); err != nil {
		t.Fatalf("RunAll: %v\n%s", err, out.String())
	}
	slices.Sort(keys)
	checkGolden(t, "point_labels", strings.Join(keys, "\n")+"\n")
}
