package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// fixedFaultMatrix builds a deterministic result with recognizable values,
// including one failed cell, to pin the rendered table.
func fixedFaultMatrix() *FaultMatrixResult {
	res := &FaultMatrixResult{
		FlowBytes: 10_000_000,
		FailAt:    1_000_000,     // 1ms
		Deadline:  2_000_000_000, // 2s
		Scenarios: []string{"cut", "gray1"},
		Schemes:   []Scheme{ECMP, FlowBender},
		Cells: map[string]map[Scheme]FaultCell{
			"cut": {
				ECMP: {Total: 8, Completed: 2, Affected: 6,
					MeanAffectedFCTms: 812.5, MeanRecoveryMs: 640.2, FlapTransitions: 2},
				FlowBender: {Total: 8, Completed: 8, Affected: 6,
					MeanAffectedFCTms: 48.1, MeanRecoveryMs: 21.7, Reroutes: 27, FlapTransitions: 2},
			},
			"gray1": {
				ECMP:       {Total: 8, Completed: 8, Affected: 1, MeanAffectedFCTms: 33.3, MeanRecoveryMs: 12.0, GrayDrops: 76},
				FlowBender: {Err: "task panicked: point exploded"},
			},
		},
	}
	return res
}

// TestPrintFaultScenarios: -list-faults names every scenario with what it
// does, one line each.
func TestPrintFaultScenarios(t *testing.T) {
	var buf bytes.Buffer
	PrintFaultScenarios(&buf)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1+len(faultScenarios) {
		t.Fatalf("%d lines for %d scenarios:\n%s", len(lines), len(faultScenarios), buf.String())
	}
	for i, sc := range faultScenarios {
		if f := strings.Fields(lines[1+i]); len(f) == 0 || f[0] != sc.name || !strings.HasSuffix(lines[1+i], "  "+sc.desc) {
			t.Errorf("line %q does not list %s: %s", lines[1+i], sc.name, sc.desc)
		}
	}
}

func TestGoldenFaultMatrixPrint(t *testing.T) {
	var buf bytes.Buffer
	fixedFaultMatrix().Print(&buf)
	checkGolden(t, "faultmatrix", buf.String())
}

// TestFaultMatrixSmoke runs a reduced real matrix (two scenarios at tiny
// scale) and checks the paper's §3.3.2 qualitative claims hold: FlowBender
// completes at least as many flows as ECMP under a clean cut, reroutes, and
// the gray scenario records silent drops. It runs in short mode: this is
// the CI smoke for the fault-injection path.
func TestFaultMatrixSmoke(t *testing.T) {
	o := Options{Seed: 7, Scale: ScaleTiny, Parallelism: 4,
		FaultScenarios: []string{"cut", "gray1"}}
	res := FaultMatrix(o)
	for _, name := range []string{"cut", "gray1"} {
		for _, s := range res.Schemes {
			c := res.Cells[name][s]
			if c.Err != "" {
				t.Fatalf("%s/%s failed: %s", name, s, c.Err)
			}
			if c.Total == 0 {
				t.Fatalf("%s/%s started no flows", name, s)
			}
		}
	}
	cut := res.Cells["cut"]
	if cut[FlowBender].Completed < cut[ECMP].Completed {
		t.Errorf("FlowBender completed %d < ECMP %d under a clean cut",
			cut[FlowBender].Completed, cut[ECMP].Completed)
	}
	if cut[FlowBender].Reroutes == 0 {
		t.Error("FlowBender never rerouted around the cut")
	}
	if cut[ECMP].Reroutes != 0 {
		t.Errorf("ECMP reported %d reroutes", cut[ECMP].Reroutes)
	}
	if res.Cells["gray1"][ECMP].GrayDrops == 0 {
		t.Error("gray scenario recorded no silent drops")
	}
}

func renderFaultMatrix(o Options) string {
	var buf bytes.Buffer
	FaultMatrix(o).Print(&buf)
	return buf.String()
}

// TestParallelDeterminismFaultMatrix extends the runpool contract to the
// fault matrix: the full suite prints byte-identical tables at parallelism
// 1 and 8 (fault events and RNG jitter are all engine-driven). The name
// matches CI's dedicated 'TestParallelDeterminism' race job.
func TestParallelDeterminismFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Seed: 7, Scale: ScaleTiny}

	o.Parallelism = 1
	seq := renderFaultMatrix(o)
	o.Parallelism = 8
	par := renderFaultMatrix(o)
	if par != seq {
		t.Fatalf("fault matrix differs at P=8 vs P=1:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestFaultMatrixPanickingPointReported pins the crash-proof harness
// contract end to end: a simulation point that panics (here via an unknown
// scenario name, whose plan builder panics inside the worker) is rendered
// as a FAILED cell while every other point still completes.
func TestFaultMatrixPanickingPointReported(t *testing.T) {
	o := Options{Seed: 7, Scale: ScaleTiny, Parallelism: 4,
		FaultScenarios: []string{"cut", "bogus"}}
	res := FaultMatrix(o)
	for _, s := range res.Schemes {
		c := res.Cells["bogus"][s]
		if c.Err == "" {
			t.Fatalf("bogus/%s reported no error", s)
		}
		if !strings.Contains(c.Err, "unknown fault scenario") {
			t.Fatalf("bogus/%s error does not name the cause: %s", s, c.Err)
		}
		if good := res.Cells["cut"][s]; good.Err != "" || good.Total == 0 {
			t.Fatalf("healthy point cut/%s did not survive the panicking neighbor: %+v", s, good)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "FAILED:") {
		t.Fatal("rendered table does not surface the failed point")
	}
}

// TestFaultCellJSONHandlesNaN pins that a cell with no completed affected
// flows (NaN mean FCT) still encodes — encoding/json rejects raw NaN.
func TestFaultCellJSONHandlesNaN(t *testing.T) {
	res := fixedFaultMatrix()
	cell := res.Cells["cut"][ECMP]
	cell.MeanAffectedFCTms = math.NaN()
	res.Cells["cut"][ECMP] = cell
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatalf("NaN cell failed to encode: %v", err)
	}
	if !strings.Contains(buf.String(), `"MeanAffectedFCTms": null`) {
		t.Fatalf("NaN not rendered as null:\n%s", buf.String())
	}
}

// TestRunAllSurvivesPanickingExperiment pins the harness-level recovery: one
// experiment panicking mid-run must not take down the others, and the error
// returned after every table is printed names the one that failed.
func TestRunAllSurvivesPanickingExperiment(t *testing.T) {
	reg := []RegistryEntry{
		{Name: "boom", Desc: "always panics",
			Run: func(Options) Printable { panic("experiment exploded") }},
		{Name: "faults-subset", Desc: "healthy fault run",
			Run: func(o Options) Printable {
				o.FaultScenarios = []string{"cut"}
				return FaultMatrix(o)
			}},
	}
	var buf bytes.Buffer
	err := runExperiments(Options{Seed: 7, Scale: ScaleTiny, Parallelism: 4}, &buf, reg)
	if err == nil || !strings.Contains(err.Error(), "boom") || strings.Contains(err.Error(), "faults-subset") {
		t.Fatalf("error %v: want one naming boom and not faults-subset", err)
	}
	out := buf.String()
	if !strings.Contains(out, "==== boom") || !strings.Contains(out, "FAILED: experiment exploded") {
		t.Fatalf("panicking experiment not reported inline:\n%s", out)
	}
	if !strings.Contains(out, "==== faults-subset") || !strings.Contains(out, "cut") ||
		strings.Contains(out, "faults-subset — healthy fault run ====\nFAILED") {
		t.Fatalf("healthy experiment did not complete:\n%s", out)
	}
}
