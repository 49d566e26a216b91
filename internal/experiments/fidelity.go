package experiments

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Fidelity divergence bounds: the documented contract between the two
// engines on the all-to-all workload at overlapping scales. The CI
// fidelity-smoke job and TestFidelityMatrixBounds assert them; EXPERIMENTS.md
// documents them as the fidelity ladder's rung spacing.
const (
	// FidelityP50Bound caps |fluid - packet| / packet on the median FCT.
	FidelityP50Bound = 0.10
	// FidelityP99Bound caps the same on the 99th percentile, where the
	// packet engine's emergent queueing transients are hardest to mirror.
	FidelityP99Bound = 0.25
)

// FidelitySchemes is the cross-validated scheme set: the schemes the fluid
// engine models faithfully enough to compare. The rest run another scheme's
// fluid model (the schemes table's fluid column) or, like RPS, owe their
// packet-level behaviour to reordering the model leaves out, so validating
// them would measure the documented model gaps, not engine fidelity.
var FidelitySchemes = []Scheme{ECMP, FlowBender, RepFlow, DiffFlow}

// FidelityCell is one (scale, scheme) comparison: both engines run the
// identical all-to-all workload — same arrival draws, same flow IDs, same
// hash streams — and the cell reports how far the fluid FCT distribution
// lands from the packet one, plus the event-count ratio (the speedup proxy
// that, unlike wall clock, is deterministic).
type FidelityCell struct {
	Scale  ScaleLevel
	Scheme Scheme

	PktP50ms, PktP99ms float64
	FlP50ms, FlP99ms   float64
	P50Div, P99Div     float64 // |fluid-packet|/packet

	PktEvents, FlEvents int64
	Incomplete          int // across both engines; non-zero poisons the cell
}

// FidelityResult is the cross-validation matrix of the two engines.
type FidelityResult struct {
	Load  float64
	Flows map[ScaleLevel]int
	Cells []FidelityCell
}

// WithinBounds reports whether every cell's divergence sits inside the
// documented fidelity bounds.
func (r *FidelityResult) WithinBounds() bool {
	for _, c := range r.Cells {
		if c.P50Div > FidelityP50Bound || c.P99Div > FidelityP99Bound || c.Incomplete > 0 {
			return false
		}
	}
	return true
}

// FidelityMatrix runs both engines on the identical all-to-all workload at
// every scale up to Options.Scale that the packet engine can still execute
// (tiny through paper; hyper is capped at paper) and reports per-scheme
// p50/p99 FCT divergence. It is the validation harness that licenses the fluid engine's
// 10k-host runs: the fluid model is only trustworthy at scales the packet
// engine cannot reach because it tracks the packet engine at scales it can.
func FidelityMatrix(o Options) *FidelityResult {
	scales := []ScaleLevel{ScaleTiny}
	if o.Scale >= ScaleSmall {
		scales = append(scales, ScaleSmall)
	}
	if o.Scale >= ScalePaper {
		scales = append(scales, ScalePaper)
	}
	load := 0.4
	if o.Load > 0 {
		load = o.Load
	}

	type fPoint struct {
		scale  ScaleLevel
		scheme Scheme
		engine EngineKind
	}
	var points []fPoint
	for _, sc := range scales {
		for _, s := range FidelitySchemes {
			for _, e := range []EngineKind{EnginePacket, EngineFluid} {
				points = append(points, fPoint{scale: sc, scheme: s, engine: e})
			}
		}
	}
	type fOut struct {
		p50, p99   float64
		events     int64
		incomplete int
	}
	label := func(pt fPoint) string { return fmt.Sprintf("%s/%s/%s", pt.scale, pt.scheme, pt.engine) }
	res := &FidelityResult{Load: load, Flows: make(map[ScaleLevel]int)}
	for _, sc := range scales {
		oo := o
		oo.Scale = sc
		res.Flows[sc] = oo.flowCount()
	}
	outs := must(runPoints(o, "fidelity", 1, points, label, func(o Options, pt fPoint) fOut {
		o.Scale = pt.scale
		o.Engine = pt.engine
		out := o.runAllToAll(allToAllSpec{scheme: pt.scheme, load: load})
		all := out.FCT.All()
		return fOut{
			p50:        all.Percentile(50),
			p99:        all.Percentile(99),
			events:     out.Events,
			incomplete: out.Incomplete,
		}
	}))

	div := func(fl, pkt float64) float64 {
		if pkt <= 0 {
			return math.Inf(1)
		}
		return math.Abs(fl-pkt) / pkt
	}
	idx := 0
	for _, sc := range scales {
		for _, s := range FidelitySchemes {
			pkt, fl := outs[idx], outs[idx+1]
			idx += 2
			cell := FidelityCell{
				Scale:      sc,
				Scheme:     s,
				PktP50ms:   pkt.p50 * 1000,
				PktP99ms:   pkt.p99 * 1000,
				FlP50ms:    fl.p50 * 1000,
				FlP99ms:    fl.p99 * 1000,
				P50Div:     div(fl.p50, pkt.p50),
				P99Div:     div(fl.p99, pkt.p99),
				PktEvents:  pkt.events,
				FlEvents:   fl.events,
				Incomplete: pkt.incomplete + fl.incomplete,
			}
			res.Cells = append(res.Cells, cell)
			o.logf("fidelity: %s %s p50 %.3f/%.3fms (%.1f%%) p99 %.3f/%.3fms (%.1f%%) events %d/%d",
				sc, s, cell.PktP50ms, cell.FlP50ms, cell.P50Div*100,
				cell.PktP99ms, cell.FlP99ms, cell.P99Div*100, cell.PktEvents, cell.FlEvents)
		}
	}
	return res
}

// Print renders the matrix with the divergence bounds it is judged against.
func (r *FidelityResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Engine fidelity matrix: packet vs fluid, all-to-all at %.0f%% load\n", r.Load*100)
	fmt.Fprintf(w, "(bounds: p50 within %.0f%%, p99 within %.0f%%; events = executed engine events, the deterministic cost proxy)\n",
		FidelityP50Bound*100, FidelityP99Bound*100)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scale\tscheme\tpkt p50 (ms)\tfluid p50\tdiv\tpkt p99 (ms)\tfluid p99\tdiv\tpkt events\tfluid events\tratio")
	for _, c := range r.Cells {
		ratio := "-"
		if c.FlEvents > 0 {
			ratio = fmt.Sprintf("%.0fx", float64(c.PktEvents)/float64(c.FlEvents))
		}
		mark := ""
		if c.P50Div > FidelityP50Bound || c.P99Div > FidelityP99Bound || c.Incomplete > 0 {
			mark = " !"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.1f%%\t%.3f\t%.3f\t%.1f%%\t%d\t%d\t%s%s\n",
			c.Scale, c.Scheme, c.PktP50ms, c.FlP50ms, c.P50Div*100,
			c.PktP99ms, c.FlP99ms, c.P99Div*100, c.PktEvents, c.FlEvents, ratio, mark)
	}
	tw.Flush()
	if r.WithinBounds() {
		fmt.Fprintln(w, "verdict: all cells within bounds")
	} else {
		fmt.Fprintln(w, "verdict: DIVERGED (cells marked !)")
	}
}
