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

// fluidBenchLoad is the offered load of the fluid benchmark workload, matched
// to the fidelity matrix's default so the benchmarked regime is the validated
// one.
const fluidBenchLoad = 0.4

// fluidArrivals pre-draws one deterministic all-to-all schedule on the tiny
// fat-tree. Drawing happens outside the benchmark timer so every op replays
// the identical workload and the measurement is pure engine cost.
func fluidArrivals(p topo.Params, flows int) []workload.ArrivalIdx {
	cdf := workload.WebSearchCDF()
	gen := &workload.AllToAll{
		RNG:      sim.NewRNG(1).Fork("workload"),
		NumHosts: p.NumHosts(),
		CDF:      cdf,
		MeanInterarrival: workload.AggregateInterarrival(
			fluidBenchLoad, p.BisectionBps(), p.InterPodFraction(), cdf.Mean()),
	}
	return gen.PredrawIdx(flows)
}

// FluidAllToAll measures the fluid engine's steady state end to end: one op
// is a complete all-to-all run of `flows` transfers on the tiny fat-tree —
// arrivals, incremental rate re-solves, slow-start rounds, completions. The
// engine, simulation, and arrival closures are built once and replayed at
// shifted virtual times each op, so after the untimed warm-up op the
// measurement is the zero-allocation steady-state loop (allocs/op here is
// the CI allocation-regression gate's early-warning twin). The headline
// extra metric is "flows/sec", the fluid engine's composite throughput (the
// analogue of the packet engine's exp_*_flows_per_sec, measured per-engine
// so the two are never confused in a snapshot diff).
func FluidAllToAll(b *testing.B, flows int) {
	fluidSteadyState(b, fluid.Config{Params: topo.TinyScale()}, flows)
}

// FluidAllToAllFlowBender is FluidAllToAll with a FlowBender controller on
// every flow: the epoch ticks, marking estimates, and reroute-triggered
// re-solves are the fluid engine's most expensive steady-state work, so this
// is the upper bound on per-flow cost.
func FluidAllToAllFlowBender(b *testing.B, flows int) {
	cfg := fluid.Config{
		Params:     topo.TinyScale(),
		FlowBender: &core.Config{T: 0.05, N: 1, RNG: sim.NewRNG(99)},
	}
	fluidSteadyState(b, cfg, flows)
}

// FluidAllToAllShards is FluidAllToAll with the solver's component-parallel
// path engaged (threshold included) at the given worker count. Results are
// bit-identical to serial at any shard count; the bench shows what the
// dispatch costs (or wins) on the current box.
func FluidAllToAllShards(b *testing.B, flows, shards int) {
	cfg := fluid.Config{Params: topo.TinyScale(), SolverShards: shards}
	fluidSteadyState(b, cfg, flows)
}

// FluidAllToAllSpray is FluidAllToAll with every flow sprayed over all of
// its paths (the RPS/DeTail image: the cutoff is above any flow size). One
// flow becomes one solver session per path, sharing its first and last link,
// so arrivals couple into multi-session max-min components and commits take
// the solver's general loop, which the other fluid_a2a entries, whose
// components stay at one or two sessions, never enter. The tiny fabric has
// at most four paths a flow, so components stay far smaller than at scale.
func FluidAllToAllSpray(b *testing.B, flows int) {
	cfg := fluid.Config{Params: topo.TinyScale(), Spray: true, ShortCutoff: math.MaxInt64}
	fluidSteadyState(b, cfg, flows)
}

// fluidSteadyState builds one warm fluid simulation and replays the
// pre-drawn schedule once per op at the engine's current instant. Arrivals
// are injected through a beacon chain — each one schedules the next before
// firing — so the engine never holds more than one pending arrival (the same
// injection shape the experiment runners use; pre-scheduling the whole
// schedule would make every op measure a flows-deep overflow heap instead of
// the steady state).
func fluidSteadyState(b *testing.B, cfg fluid.Config, flows int) {
	arrivals := fluidArrivals(cfg.Params, flows)
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
	runOnce := func() {
		base = eng.Now()
		idx = 0
		fs.Completed = 0
		eng.At(base+arrivals[0].At, beacon)
		eng.RunUntilIdle()
		if fs.Completed != int64(len(arrivals)) {
			b.Fatalf("fluid run incomplete: %d of %d flows", fs.Completed, len(arrivals))
		}
	}
	runOnce() // untimed warm-up: size the arenas, pools, and event wheel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(flows)/b.Elapsed().Seconds(), "flows/sec")
}
