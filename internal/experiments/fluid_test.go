package experiments

import (
	"bytes"
	"testing"
)

// TestFidelityMatrixBounds is the fidelity-smoke assertion: at tiny scale
// (16 servers) both engines run the identical all-to-all workload and every
// scheme's p50/p99 FCT divergence must sit inside the documented bounds.
// This is the contract that licenses the fluid engine's beyond-packet-scale
// runs; a model change that drifts outside it must either be fixed or
// re-documented, never silently absorbed.
func TestFidelityMatrixBounds(t *testing.T) {
	o := DefaultOptions()
	o.Scale = ScaleTiny // tiny-only: the 16-server rung, cheap enough for tier 1
	res := FidelityMatrix(o)
	for _, c := range res.Cells {
		if c.Incomplete > 0 {
			t.Errorf("%s/%s: %d incomplete flows", c.Scale, c.Scheme, c.Incomplete)
		}
		if c.P50Div > FidelityP50Bound {
			t.Errorf("%s/%s: p50 divergence %.1f%% > %.0f%% (packet %.3fms, fluid %.3fms)",
				c.Scale, c.Scheme, c.P50Div*100, FidelityP50Bound*100, c.PktP50ms, c.FlP50ms)
		}
		if c.P99Div > FidelityP99Bound {
			t.Errorf("%s/%s: p99 divergence %.1f%% > %.0f%% (packet %.3fms, fluid %.3fms)",
				c.Scale, c.Scheme, c.P99Div*100, FidelityP99Bound*100, c.PktP99ms, c.FlP99ms)
		}
		// The event-count ratio is the deterministic speedup proxy; the
		// fluid engine must be at least two orders of magnitude cheaper.
		if c.FlEvents*100 > c.PktEvents {
			t.Errorf("%s/%s: fluid events %d not <1%% of packet events %d",
				c.Scale, c.Scheme, c.FlEvents, c.PktEvents)
		}
	}
}

// TestFidelityMatrixBooks: the events the fidelity matrix's cells report
// add up to what the books hold.
func TestFidelityMatrixBooks(t *testing.T) {
	o := Options{Seed: 1, Scale: ScaleTiny, FlowCount: 20, Parallelism: 2, Perf: &PerfStats{}}
	res := FidelityMatrix(o)
	var cells int64
	for _, c := range res.Cells {
		cells += c.PktEvents + c.FlEvents
	}
	if ev := o.Perf.Events.Load(); ev != cells {
		t.Errorf("books hold %d events, the cells report %d", ev, cells)
	}
}

// The fidelity matrix runs at Options.Load (the -load flag) when it is set,
// and reports the load it ran at.
func TestFidelityMatrixReadsLoad(t *testing.T) {
	o := Options{Seed: 1, Scale: ScaleTiny, FlowCount: 20, Load: 0.3}
	if got := FidelityMatrix(o).Load; got != 0.3 {
		t.Errorf("FidelityMatrix at Load 0.3 reports load %v", got)
	}
}

// TestFluidEngineParallelismInvariance pins the fluid engine's experiment
// output as byte-identical across Options.Parallelism values, exactly like
// the packet engine's equivalent guarantee: every point is an isolated
// engine, so the pool's scheduling must never leak into results.
func TestFluidEngineParallelismInvariance(t *testing.T) {
	render := func(parallel int) string {
		o := DefaultOptions()
		o.Scale = ScaleTiny
		o.Engine = EngineFluid
		o.Parallelism = parallel
		var buf bytes.Buffer
		AllToAll(o).Print(&buf)
		Table1(o).Print(&buf)
		ProductionMix(o).Print(&buf)
		return buf.String()
	}
	ref := render(1)
	if ref == "" {
		t.Fatal("empty render")
	}
	for _, parallel := range []int{4, 8} {
		if got := render(parallel); got != ref {
			t.Errorf("fluid output differs between -parallel 1 and -parallel %d", parallel)
		}
	}
}

// TestFluidProductionKindsMatchPacket checks that the fluid production run
// consumes the identical pre-drawn schedule as the packet run: same flow
// counts per pattern kind, same started/planned totals. (FCTs differ by
// design; the workload must not.)
func TestFluidProductionKindsMatchPacket(t *testing.T) {
	run := func(e EngineKind) MixCell {
		o := DefaultOptions()
		o.Scale = ScaleTiny
		o.Engine = e
		o.MixSchemes = []Scheme{ECMP}
		return ProductionMix(o).Cells[ECMP]
	}
	pkt, fl := run(EnginePacket), run(EngineFluid)
	if pkt.Started != fl.Started || pkt.Plain != fl.Plain ||
		pkt.Incast != fl.Incast || pkt.Storage != fl.Storage {
		t.Errorf("schedules diverged: packet started=%d plain=%d incast=%d storage=%d, fluid started=%d plain=%d incast=%d storage=%d",
			pkt.Started, pkt.Plain, pkt.Incast, pkt.Storage,
			fl.Started, fl.Plain, fl.Incast, fl.Storage)
	}
	if fl.Completed != fl.Started {
		t.Errorf("fluid left %d of %d flows incomplete", fl.Started-fl.Completed, fl.Started)
	}
}
