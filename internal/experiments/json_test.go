package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"flowbender/internal/stats"
)

func TestAllToAllJSONRoundtrip(t *testing.T) {
	res := &AllToAllResult{
		Loads:   []float64{0.2, 0.4},
		Schemes: AllSchemes,
		Cells: map[float64]map[Scheme][stats.NumBins]AllToAllCell{
			0.2: {FlowBender: {{MeanNorm: 0.9}}},
		},
		OOO:      map[Scheme]float64{FlowBender: 0.01, RPS: 0.2},
		Reroutes: map[float64]int64{0.2: 42},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"20%"`, `"FlowBender"`, `"Reroutes"`, "0.9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out)
		}
	}
	// It must be valid JSON.
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
}

func TestTestbedJSON(t *testing.T) {
	res := &TestbedResult{
		Loads:     []float64{0.6},
		Norm:      map[float64][3]float64{0.6: {0.9, 0.7, 0.6}},
		ECMPAbsMs: map[float64][3]float64{0.6: {1, 2, 3}},
		FlowBytes: 1_000_000,
		Tors:      15,
		Spines:    4,
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"60%"`) {
		t.Fatalf("load key missing: %s", buf.String())
	}
}

func TestEveryResultTypeMarshals(t *testing.T) {
	// Every registry experiment's result must be JSON-encodable (the fbsim
	// -json flag relies on it). Use cheap zero-ish instances.
	results := []Printable{
		&Table1Result{},
		&AllToAllResult{},
		&PartAggResult{NormJCT: map[int]map[Scheme]float64{4: {FlowBender: 1}}},
		&SensitivityResult{},
		&TestbedResult{},
		&HotspotResult{TCPOnU: map[Scheme]float64{ECMP: 3.5}},
		&TopoDepResult{},
		&LinkFailureResult{Completed: map[Scheme]int{ECMP: 1}},
		&WCMPResult{},
		&UDPSprayResult{},
		&AblationResult{},
		// Empty bins carry NaN quantiles; they must come out as null
		// instead of failing the whole encode.
		&ProductionMixResult{Schemes: DefaultMixSchemes,
			Cells: map[Scheme]MixCell{ECMP: {All: MixBinCell{P50ms: math.NaN()}}}},
	}
	for i, r := range results {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, r); err != nil {
			t.Errorf("result %d (%T): %v", i, r, err)
		}
	}
}

// TestEveryExperimentSerialises: whatever a registered experiment returns at
// tiny scale, fbsim -json must be able to write it — valid JSON, with a null
// for each mean the table prints as "n/a (none completed)". Link failure is
// the case that needs the rule: ECMP's affected flows never finish, which is
// the paper's point, so their mean FCT is NaN on every run.
func TestEveryExperimentSerialises(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, e := range Registry {
		res := e.Run(tinyOpts())
		var out, table bytes.Buffer
		if err := WriteJSON(&out, res); err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if !json.Valid(out.Bytes()) {
			t.Errorf("%s: invalid JSON:\n%s", e.Name, out.String())
		}
		res.Print(&table)
		noSample := strings.Count(table.String(), "n/a (none completed)")
		if nulls := strings.Count(out.String(), ": null"); nulls < noSample {
			t.Errorf("%s: table has %d means without a sample, JSON only %d nulls:\n%s", e.Name, noSample, nulls, out.String())
		}
		if e.Name == "linkfailure" && noSample == 0 {
			t.Errorf("linkfailure: every mean has a sample, so no NaN was serialised:\n%s", table.String())
		}
	}
}
