package experiments

import (
	"bytes"
	"fmt"
	"testing"
)

func renderProduction(o Options) string {
	var buf bytes.Buffer
	ProductionMix(o).Print(&buf)
	return buf.String()
}

// TestProductionSmoke runs the default websearch mix at tiny scale and
// checks the delivery accounting is internally consistent for every scheme:
// all scheduled flows start and complete, kind counts partition the
// completions, and the per-bin sample counts sum to the total.
func TestProductionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Seed: 1, Scale: ScaleTiny, FlowCount: 120}
	res := ProductionMix(o)
	if res.Workload != "websearch" {
		t.Fatalf("default workload = %q", res.Workload)
	}
	for _, s := range res.Schemes {
		c := res.Cells[s]
		if c.Started != int64(res.Flows) || c.NotStarted != 0 {
			t.Errorf("%v: started %d of %d (not started %d)", s, c.Started, res.Flows, c.NotStarted)
		}
		if c.Completed != c.Started || c.Incomplete != 0 {
			t.Errorf("%v: completed %d/%d", s, c.Completed, c.Started)
		}
		if c.Plain+c.Incast+c.Storage != c.Completed {
			t.Errorf("%v: kinds %d+%d+%d don't partition %d completions",
				s, c.Plain, c.Incast, c.Storage, c.Completed)
		}
		if c.Incast == 0 || c.Storage == 0 {
			t.Errorf("%v: mix produced no incast (%d) or storage (%d) flows", s, c.Incast, c.Storage)
		}
		var binned int64
		for _, b := range c.Bins {
			binned += b.N
		}
		if binned != c.Completed || c.All.N != c.Completed {
			t.Errorf("%v: bin counts %d / all %d vs completed %d", s, binned, c.All.N, c.Completed)
		}
		if !(c.All.P50ms > 0) || !(c.All.P999ms >= c.All.P99ms) || !(c.All.P99ms >= c.All.P50ms) {
			t.Errorf("%v: quantiles not ordered: p50=%v p99=%v p99.9=%v",
				s, c.All.P50ms, c.All.P99ms, c.All.P999ms)
		}
	}
}

// TestProductionDatamining covers the Poisson-arrival workload and pins
// serial/sharded identity for it (the diurnal path is pinned by the
// byte-identity goldens below).
func TestProductionDatamining(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Seed: 5, Scale: ScaleTiny, FlowCount: 80,
		Workload: "datamining", MixSchemes: []Scheme{ECMP}}
	serial := renderProduction(o)
	res := ProductionMix(o)
	c := res.Cells[ECMP]
	if c.Completed == 0 {
		t.Fatal("datamining mix completed no flows")
	}
	o.Shards = 4
	if got := renderProduction(o); got != serial {
		t.Errorf("datamining output at -shards 4 differs from serial:\n--- serial ---\n%s\n--- sharded ---\n%s", serial, got)
	}
}

// TestProductionUnknownWorkload pins the failure mode of a bad -workload.
func TestProductionUnknownWorkload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ProductionMix accepted an unknown workload")
		}
	}()
	ProductionMix(Options{Seed: 1, Scale: ScaleTiny, FlowCount: 10, Workload: "nope"})
}

// TestByteIdentityProduction pins the production experiment's rendered
// output to a golden capture at parallelism 1, 4, and 8.
func TestByteIdentityProduction(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkByteIdentity(t, "byteident_production", func(o Options) string {
		o.FlowCount = 200
		return renderProduction(o)
	})
}

// TestByteIdentityShardedProduction pins the sharded production runner to
// the same golden as serial execution at every shard count. Only ECMP of the
// default scheme set shards; the others take the serial fallback, which must
// be equally invisible.
func TestByteIdentityShardedProduction(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := byteIdentOpts()
	o.FlowCount = 200
	o.Parallelism = 1
	for _, s := range []int{1, 2, 4, 8} {
		o.Shards = s
		checkGolden(t, "byteident_production", renderProduction(o))
	}
}

// TestProductionPerfCounters checks the FlowsCompleted telemetry the cmd
// tools report: every completed flow of every scheme point is counted.
func TestProductionPerfCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var perf PerfStats
	o := Options{Seed: 2, Scale: ScaleTiny, FlowCount: 60, Perf: &perf}
	res := ProductionMix(o)
	var want int64
	for _, s := range res.Schemes {
		want += res.Cells[s].Completed
	}
	if got := perf.FlowsCompleted.Load(); got != want {
		t.Errorf("FlowsCompleted = %d, want %d", got, want)
	}
	if perf.FlowsPerSec(0) != 0 {
		t.Error("FlowsPerSec(0) should be 0")
	}
}

// TestSchemeByName pins the -schemes flag's name resolution.
func TestSchemeByName(t *testing.T) {
	for _, s := range AllSchemes {
		got, ok := SchemeByName(s.String())
		if !ok || got != s {
			t.Errorf("SchemeByName(%q) = %v, %v", s.String(), got, ok)
		}
	}
	if got, ok := SchemeByName("flowbender"); !ok || got != FlowBender {
		t.Errorf("case-insensitive lookup failed: %v, %v", got, ok)
	}
	if _, ok := SchemeByName("nope"); ok {
		t.Error("SchemeByName accepted an unknown name")
	}
}

// TestProductionMixSchemesOption checks the scheme-set override reaches the
// result and its label order is preserved.
func TestProductionMixSchemesOption(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Seed: 1, Scale: ScaleTiny, FlowCount: 40,
		MixSchemes: []Scheme{FlowDyn, ECMP}}
	res := ProductionMix(o)
	if fmt.Sprint(res.Schemes) != fmt.Sprint([]Scheme{FlowDyn, ECMP}) {
		t.Errorf("schemes = %v", res.Schemes)
	}
	for _, s := range res.Schemes {
		if res.Cells[s].Completed == 0 {
			t.Errorf("%v: no completions", s)
		}
	}
}
