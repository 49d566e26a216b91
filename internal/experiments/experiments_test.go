package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func tinyOpts() Options {
	return Options{Seed: 1, Scale: ScaleTiny, FlowCount: 80, JobCount: 12, Repeats: 1}
}

// TestSchemeString checks the schemes table: one named, described row per
// scheme in AllSchemes order, and a fluid column that names a scheme running
// its own model — no scheme's model chains through another scheme's.
func TestSchemeString(t *testing.T) {
	if len(schemes) != len(AllSchemes) {
		t.Fatalf("schemes table has %d rows, AllSchemes %d", len(schemes), len(AllSchemes))
	}
	for i, s := range AllSchemes {
		if s != Scheme(i) {
			t.Fatalf("AllSchemes[%d] = %v, want the table's row %d", i, s, i)
		}
		if strings.Contains(s.String(), "scheme(") || schemes[s].name == "" || schemes[s].desc == "" {
			t.Fatalf("scheme %d: missing name or description: %+v", int(s), schemes[s])
		}
		if m := schemes[s].fluid; schemes[m].fluid != m {
			t.Errorf("%v runs %v's fluid model, which runs %v's", s, m, schemes[m].fluid)
		}
	}
}

func TestLookup(t *testing.T) {
	for _, e := range Registry {
		if _, ok := Lookup(e.Name); !ok {
			t.Fatalf("registry entry %q not found by Lookup", e.Name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup found a nonexistent experiment")
	}
}

func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Table1(tinyOpts())
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if len(res.Schemes) != len(AllSchemes) {
		t.Fatalf("schemes = %d, want %d", len(res.Schemes), len(AllSchemes))
	}
	for ri, row := range res.Rows {
		if row.IdealMs <= 0 {
			t.Fatalf("row %d: non-positive ideal: %+v", ri, row)
		}
		for si, s := range res.Schemes {
			if row.MeanMs[si] <= 0 {
				t.Fatalf("row %d %v: non-positive mean %v", ri, s, row.MeanMs[si])
			}
			if row.MaxMs[si] < row.MeanMs[si] {
				t.Fatalf("row %d %v: max %v below mean %v", ri, s, row.MaxMs[si], row.MeanMs[si])
			}
			// No scheme's last finisher can beat the work-conserving ideal
			// by more than jitter. (The mean legitimately can: a scheme with
			// unfair path sharing finishes some flows early — DeTail's PFC
			// fabric does — so only the max is bounded below by the ideal.)
			if row.MaxMs[si] < row.IdealMs*0.95 {
				t.Fatalf("row %d %v: max %v below ideal %v", ri, s, row.MaxMs[si], row.IdealMs)
			}
			// Fair-shared per-flow schemes keep even the mean at or above ideal.
			if (s == ECMP || s == FlowBender) && row.MeanMs[si] < row.IdealMs*0.95 {
				t.Fatalf("row %d %v: mean %v below ideal %v", ri, s, row.MeanMs[si], row.IdealMs)
			}
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("Print output missing title")
	}
}

func TestAllToAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := tinyOpts()
	res := AllToAll(o)
	if res.Incomplete != 0 {
		t.Fatalf("%d flows incomplete", res.Incomplete)
	}
	// ECMP cells must normalize to exactly 1.
	for _, load := range res.Loads {
		for b, cell := range res.Cells[load][ECMP] {
			if cell.N == 0 {
				continue
			}
			if math.Abs(cell.MeanNorm-1) > 1e-9 {
				t.Fatalf("ECMP normalization broken at load %v bin %d: %v", load, b, cell.MeanNorm)
			}
		}
	}
	// Reordering ordering: ECMP has none; RPS reorders more than FlowBender.
	if res.OOO[ECMP] != 0 {
		t.Fatalf("ECMP reordered packets: %v", res.OOO[ECMP])
	}
	if res.OOO[RPS] <= res.OOO[FlowBender] {
		t.Fatalf("RPS (%v) should reorder more than FlowBender (%v)", res.OOO[RPS], res.OOO[FlowBender])
	}
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "Figure 4") {
		t.Fatal("Print output missing figures")
	}
}

func TestPartitionAggregateSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := PartitionAggregate(tinyOpts())
	for _, fanIn := range res.FanIns {
		for _, s := range res.Schemes {
			if v := res.NormJCT[fanIn][s]; math.IsNaN(v) || v <= 0 {
				t.Fatalf("fanin %d scheme %v: norm JCT %v", fanIn, s, v)
			}
		}
		if math.Abs(res.NormJCT[fanIn][ECMP]-1) > 1e-9 {
			t.Fatal("ECMP JCT must normalize to 1")
		}
	}
}

func TestSensitivitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, res := range []*SensitivityResult{SensitivityN(tinyOpts()), SensitivityT(tinyOpts())} {
		found := false
		for i, v := range res.Values {
			if v == res.Default {
				found = true
				if math.Abs(res.Norm[i]-1) > 1e-9 {
					t.Fatalf("%s: default point not normalized to 1", res.Param)
				}
			}
			if res.AbsMs[i] <= 0 {
				t.Fatalf("%s: non-positive latency", res.Param)
			}
		}
		if !found {
			t.Fatalf("%s: default value missing from sweep", res.Param)
		}
	}
}

func TestTestbedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Testbed(tinyOpts())
	for _, load := range res.Loads {
		n := res.Norm[load]
		for i, v := range n {
			if math.IsNaN(v) || v <= 0 {
				t.Fatalf("load %v metric %d: %v", load, i, v)
			}
		}
	}
}

func TestHotspotSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Hotspot(tinyOpts())
	for _, s := range []Scheme{ECMP, FlowBender} {
		if res.TCPOnU[s] < 0 || res.TCPOnU[s] > 10 {
			t.Fatalf("%v TCP on U = %v Gbps", s, res.TCPOnU[s])
		}
		if res.UDPDelivered[s] < 0.5 {
			t.Fatalf("%v UDP delivery collapsed: %v", s, res.UDPDelivered[s])
		}
	}
	// The point of the experiment: FlowBender moves TCP off the hotspot.
	if res.TCPOnU[FlowBender] > res.TCPOnU[ECMP]*1.2 {
		t.Fatalf("FlowBender left more TCP on U (%v) than ECMP (%v)",
			res.TCPOnU[FlowBender], res.TCPOnU[ECMP])
	}
}

func TestLinkFailureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := LinkFailure(tinyOpts())
	if res.Completed[FlowBender] <= res.Completed[ECMP] {
		t.Fatalf("FlowBender (%d/%d) should outlive ECMP (%d/%d) after a cut",
			res.Completed[FlowBender], res.Total, res.Completed[ECMP], res.Total)
	}
}

func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := tinyOpts()
	o.FlowCount = 40
	a := o.runAllToAll(allToAllSpec{scheme: FlowBender, load: 0.4, flows: o.FlowCount})
	b := o.runAllToAll(allToAllSpec{scheme: FlowBender, load: 0.4, flows: o.FlowCount})
	if a.FCT.All().Mean() != b.FCT.All().Mean() || a.OutOfOrder != b.OutOfOrder || a.Reroutes != b.Reroutes {
		t.Fatal("identically seeded runs diverged")
	}
}

func TestWCMPSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := tinyOpts()
	o.FlowCount = 60
	res := WCMP(o)
	if len(res.Variants) != len(res.MeanMs) || len(res.Variants) != len(res.ThinShare) {
		t.Fatal("ragged result")
	}
	for i, v := range res.Variants {
		if res.MeanMs[i] <= 0 || math.IsNaN(res.MeanMs[i]) {
			t.Fatalf("%s: mean %v", v.Name, res.MeanMs[i])
		}
		if res.ThinShare[i] < 0 || res.ThinShare[i] > 1 {
			t.Fatalf("%s: thin share %v", v.Name, res.ThinShare[i])
		}
	}
	// Exact WCMP must put less on the thin path than oblivious ECMP.
	if res.ThinShare[1] >= res.ThinShare[0] {
		t.Fatalf("exact WCMP (%v) should beat ECMP (%v) on the thin path",
			res.ThinShare[1], res.ThinShare[0])
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "WCMP") {
		t.Fatal("print missing title")
	}
}

func TestUDPSpraySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := UDPSpray(tinyOpts())
	if len(res.Variants) != 4 {
		t.Fatalf("variants = %d", len(res.Variants))
	}
	// Pinned: everything on one path, nothing reordered.
	if res.MaxShare[0] != 1 || res.OOOFrac[0] != 0 {
		t.Fatalf("pinned: share=%v ooo=%v", res.MaxShare[0], res.OOOFrac[0])
	}
	// Any spraying spreads the load.
	for i := 1; i < len(res.Variants); i++ {
		if res.MaxShare[i] >= 0.9 {
			t.Fatalf("%s did not spread: %v", res.Variants[i], res.MaxShare[i])
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := tinyOpts()
	o.FlowCount = 50
	res := Ablations(o)
	if len(res.MeanNorm) != len(res.Variants) || len(res.ValMeanMs) != len(res.Variants) {
		t.Fatal("ragged ablation result")
	}
	if math.Abs(res.MeanNorm[0]-1) > 1e-9 {
		t.Fatal("first variant must normalize to 1")
	}
	for i, v := range res.Variants {
		if res.ValMeanMs[i] < res.ValIdealMs*0.95 {
			t.Fatalf("%s: validation mean %v below ideal %v", v.Name, res.ValMeanMs[i], res.ValIdealMs)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Saturated validation") {
		t.Fatal("print missing validation section")
	}
}
