package benchkit

import (
	"math"
	"testing"

	"flowbender/internal/core"
	"flowbender/internal/fluid"
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// The fluid engine's steady state, end to end: one op is a complete 2000-flow
// all-to-all on the tiny fat-tree — arrivals, incremental rate re-solves,
// slow-start rounds, completions — large enough that solver re-solves (not
// setup) dominate. The headline extras are flows/sec and allocs/op, which
// TestFluidSteadyStateZeroAlloc turns into a hard gate.
const fluidBenchFlows = 2000

// fluidBenchLoad is the offered load of the fluid benchmark workload, matched
// to the fidelity matrix's default so the benchmarked regime is the validated
// one.
const fluidBenchLoad = 0.4

func BenchmarkFluidAllToAll(b *testing.B) {
	benchFluid(b, fluid.Config{Params: topo.TinyScale()})
}

// A FlowBender controller on every flow: the epoch ticks, marking estimates
// and reroute-triggered re-solves are the fluid engine's most expensive
// steady-state work, so this is the upper bound on per-flow cost.
func BenchmarkFluidAllToAllFlowBender(b *testing.B) {
	benchFluid(b, fluid.Config{
		Params:     topo.TinyScale(),
		FlowBender: &core.Config{T: 0.05, N: 1, RNG: sim.NewRNG(99)},
	})
}

// Every flow sprayed over all of its paths (the RPS/DeTail image: the cutoff
// is above any flow size). One flow becomes one solver session per path,
// sharing its first and last link, so arrivals couple into multi-session
// max-min components and commits take the solver's general loop, which the
// other fluid benchmarks, whose components stay at one or two sessions, never
// enter. The tiny fabric has at most four paths a flow, so components stay
// far smaller than at scale.
func BenchmarkFluidAllToAllSpray(b *testing.B) {
	benchFluid(b, fluid.Config{Params: topo.TinyScale(), Spray: true, ShortCutoff: math.MaxInt64})
}

// The solver's component-parallel path engaged (threshold included). Results
// are bit-identical to serial at any shard count; the benchmark shows what
// the dispatch costs (or wins) on the current box.
func BenchmarkFluidAllToAllShards2(b *testing.B) {
	benchFluid(b, fluid.Config{Params: topo.TinyScale(), SolverShards: 2})
}
func BenchmarkFluidAllToAllShards8(b *testing.B) {
	benchFluid(b, fluid.Config{Params: topo.TinyScale(), SolverShards: 8})
}

// benchFluid times a warm replay per op.
func benchFluid(b *testing.B, cfg fluid.Config) {
	runOnce := fluidReplay(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*fluidBenchFlows/b.Elapsed().Seconds(), "flows/sec")
}

// TestFluidSteadyStateZeroAlloc is the allocation-regression gate's
// whole-engine half: after one warm-up run has sized the arenas, pools,
// and event wheel, a complete 2000-flow all-to-all must perform zero heap
// allocations. BenchmarkFluidAllToAll reports the same number; this test
// makes it a hard CI failure.
func TestFluidSteadyStateZeroAlloc(t *testing.T) {
	runOnce := fluidReplay(t, fluid.Config{Params: topo.TinyScale()})
	if n := testing.AllocsPerRun(5, runOnce); n != 0 {
		t.Fatalf("steady-state fluid run allocates %v times per run, want 0", n)
	}
}

// fluidReplay builds one fluid simulation, pre-draws one deterministic
// all-to-all schedule of fluidBenchFlows transfers (outside any timer, so every replay is the identical
// workload), runs it once to size the arenas, pools and event wheel, and
// returns the function that replays it at the engine's current instant.
// Arrivals are injected through a beacon chain — each one schedules the next
// before firing — so the engine never holds more than one pending arrival
// (the same injection shape the experiment runners use; pre-scheduling the
// whole schedule would make every replay measure a flows-deep overflow heap
// instead of the steady state).
func fluidReplay(tb testing.TB, cfg fluid.Config) (runOnce func()) {
	cdf := workload.WebSearchCDF()
	gen := &workload.AllToAll{
		RNG:      sim.NewRNG(1).Fork("workload"),
		NumHosts: cfg.Params.NumHosts(),
		CDF:      cdf,
		MeanInterarrival: workload.AggregateInterarrival(
			fluidBenchLoad, cfg.Params.BisectionBps(), cfg.Params.InterPodFraction(), cdf.Mean()),
	}
	arrivals := gen.PredrawIdx(fluidBenchFlows)

	eng := sim.NewEngine()
	fs := fluid.NewSim(eng, cfg)
	var base sim.Time
	idx := 0
	var beacon func()
	beacon = func() {
		j := idx
		idx++
		if idx < len(arrivals) {
			eng.At(base+arrivals[idx].At, beacon)
		}
		a := arrivals[j]
		fs.Arrive(netsim.FlowID(j+1), a.Src, a.Dst, a.Size, 0)
	}
	runOnce = func() {
		base = eng.Now()
		idx = 0
		fs.Completed = 0
		eng.At(base+arrivals[0].At, beacon)
		eng.RunUntilIdle()
		if fs.Completed != int64(len(arrivals)) {
			tb.Fatalf("fluid run incomplete: %d of %d flows", fs.Completed, len(arrivals))
		}
	}
	runOnce()
	return runOnce
}
