package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"flowbender/internal/checkpoint"
	"flowbender/internal/sim"
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
// point's checkpoint key and the identifier its FAILED line carries, so a
// changed label silently strands the watermarks of a run being resumed. A
// checkpoint cadence of one drain chunk makes every point mark at its first
// barrier; the labels are read back from the file.
func TestPointLabelsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	o := Options{Seed: 1, Scale: ScaleTiny, FlowCount: 10, JobCount: 5, Repeats: 1, Seeds: 2, Parallelism: 2,
		FaultScenarios: []string{"gray1"}, CheckpointEvery: 5 * sim.Millisecond}
	path := filepath.Join(t.TempDir(), "labels.ckpt")
	m, err := checkpoint.Create(path, o.Descriptor("test"))
	if err != nil {
		t.Fatal(err)
	}
	o.Ckpt = m
	var out bytes.Buffer
	RunAll(o, &out)
	if strings.Contains(out.String(), "FAILED") {
		t.Fatalf("RunAll reported a failure:\n%s", out.String())
	}
	f, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(f.Marks))
	for _, pm := range f.Marks {
		keys = append(keys, pm.Key)
	}
	slices.Sort(keys)
	checkGolden(t, "point_labels", strings.Join(keys, "\n")+"\n")
}
