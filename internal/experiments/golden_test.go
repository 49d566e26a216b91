package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowbender/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file instead when -update is set. The golden files pin the exact table
// layout so formatting drift (tabwriter widths, ± rendering, header text)
// is a reviewed diff, not a silent change.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// fixedAllToAll builds a fully deterministic AllToAllResult with
// recognizable values: cell (load, scheme, bin) encodes its coordinates.
func fixedAllToAll(seeds int) *AllToAllResult {
	res := &AllToAllResult{
		Loads:   DefaultLoads,
		Schemes: AllSchemes,
		Cells:   make(map[float64]map[Scheme][stats.NumBins]AllToAllCell),
		OOO: map[Scheme]float64{
			ECMP: 0.0000123, FlowBender: 0.000345, RPS: 0.0456, DeTail: 0.0078,
			Flowlet: 0.0011, FlowDyn: 0.0022, RepFlow: 0.0000456, DiffFlow: 0.0234,
		},
		Reroutes: map[float64]int64{0.2: 12, 0.4: 34, 0.6: 56},
		Seeds:    seeds,
	}
	for li, load := range res.Loads {
		cells := make(map[Scheme][stats.NumBins]AllToAllCell)
		for si, s := range res.Schemes {
			var row [stats.NumBins]AllToAllCell
			for b := 0; b < int(stats.NumBins); b++ {
				row[b] = AllToAllCell{
					MeanNorm:    1 - 0.1*float64(si) + 0.01*float64(li) + 0.001*float64(b),
					P99Norm:     1 - 0.2*float64(si) + 0.02*float64(li) + 0.002*float64(b),
					MeanNormStd: 0.01 * float64(si+1),
					P99NormStd:  0.02 * float64(si+1),
					N:           100,
				}
			}
			cells[s] = row
		}
		res.Cells[load] = cells
	}
	return res
}

func TestGoldenAllToAllPrint(t *testing.T) {
	var buf bytes.Buffer
	fixedAllToAll(1).Print(&buf)
	checkGolden(t, "alltoall", buf.String())
}

func TestGoldenAllToAllPrintMultiSeed(t *testing.T) {
	var buf bytes.Buffer
	fixedAllToAll(3).Print(&buf)
	checkGolden(t, "alltoall_seeds", buf.String())
}

func fixedTable1(seeds int) *Table1Result {
	// Two hand-built scheme columns keep the fixture readable while still
	// pinning the per-(row, scheme) line layout that the full set uses.
	return &Table1Result{
		FlowBytes: 50_000_000,
		Paths:     4,
		Seeds:     seeds,
		Schemes:   []Scheme{ECMP, FlowBender},
		Rows: []Table1Row{
			{Flows: 4, IdealMs: 400,
				MeanMs:      []float64{812, 462},
				MaxMs:       []float64{1530, 497},
				MeanStdMs:   []float64{41, 9},
				MaxOverMean: []float64{1.88, 1.08}},
			{Flows: 8, IdealMs: 800,
				MeanMs:      []float64{1420, 841},
				MaxMs:       []float64{2410, 902},
				MeanStdMs:   []float64{66, 12},
				MaxOverMean: []float64{1.70, 1.07}},
			{Flows: 12, IdealMs: 1200,
				MeanMs:      []float64{1980, 1265},
				MaxMs:       []float64{3100, 1388},
				MeanStdMs:   []float64{90, 21},
				MaxOverMean: []float64{1.57, 1.10}},
		},
	}
}

func TestGoldenTable1Print(t *testing.T) {
	var buf bytes.Buffer
	fixedTable1(0).Print(&buf)
	checkGolden(t, "table1", buf.String())
}

func TestGoldenTable1PrintMultiSeed(t *testing.T) {
	var buf bytes.Buffer
	fixedTable1(5).Print(&buf)
	checkGolden(t, "table1_seeds", buf.String())
}

// TestGoldenSchemes pins fbsim -list-schemes output: the full comparison
// set, the scheme whose fluid model each runs, and its parameters.
func TestGoldenSchemes(t *testing.T) {
	var buf bytes.Buffer
	PrintSchemes(&buf)
	checkGolden(t, "schemes", buf.String())
}

// fixedPartAgg is a Figure 5 result with recognizable values over two
// schemes: cell (fan-in, scheme) encodes its coordinates.
func fixedPartAgg(seeds int) *PartAggResult {
	res := &PartAggResult{
		FanIns:   []int{4, 8},
		Schemes:  []Scheme{ECMP, FlowBender},
		NormJCT:  make(map[int]map[Scheme]float64),
		AbsJCTms: make(map[int]map[Scheme]float64),
		JCTStdMs: make(map[int]map[Scheme]float64),
		Load:     0.4,
		JobBytes: 1_000_000,
		Seeds:    seeds,
	}
	for fi, fanIn := range res.FanIns {
		res.NormJCT[fanIn] = map[Scheme]float64{ECMP: 1, FlowBender: 0.9 - 0.1*float64(fi)}
		res.AbsJCTms[fanIn] = map[Scheme]float64{ECMP: 2.5 + float64(fi), FlowBender: 2.25 + float64(fi)}
		res.JCTStdMs[fanIn] = map[Scheme]float64{ECMP: 0.12 + 0.01*float64(fi), FlowBender: 0.34}
	}
	return res
}

// TestGoldenPartAggPrintMultiSeed: with several seeds Figure 5 says so and
// renders the across-seed spread; one seed keeps the plain table.
func TestGoldenPartAggPrintMultiSeed(t *testing.T) {
	var one, many bytes.Buffer
	fixedPartAgg(1).Print(&one)
	if strings.Contains(one.String(), "±") || strings.Contains(one.String(), "seeds") {
		t.Errorf("one seed renders the multi-seed form:\n%s", one.String())
	}
	fixedPartAgg(5).Print(&many)
	checkGolden(t, "partagg_seeds", many.String())
}
