package experiments

import (
	"fmt"
	"io"

	"flowbender/internal/stats"
	"flowbender/internal/topo"
)

// TopoDepResult reproduces §4.3.2: FlowBender's improvement over ECMP is
// governed by the ratio R = L/P of large flows to paths, so quadrupling path
// diversity (while load scales with capacity) leaves the improvement nearly
// unchanged — ECMP's per-path flow count is binomial with mean R and
// variance R(1 - 1/P), which barely moves with P.
type TopoDepResult struct {
	// Per fabric: path count P, FlowBender mean-latency improvement over
	// ECMP (ECMP/FlowBender, >1 is better), and the binomial variance
	// factor R(1-1/P)/R = 1-1/P.
	Paths       []int
	Improvement []float64
	VarFactor   []float64
	Load        float64
}

// TopoDependence runs the 40% all-to-all workload on two fat-trees with
// different path diversity (the small 4-path and the paper's 8-path fabric,
// host count scaled with capacity) and compares FlowBender's improvement.
func TopoDependence(o Options) *TopoDepResult {
	res := &TopoDepResult{Load: 0.4}

	configs := []struct {
		scale ScaleLevel
		p     topo.Params
	}{
		{ScaleSmall, topo.SmallScale()},
		{ScalePaper, topo.PaperScale()},
	}
	if o.Scale == ScaleTiny {
		tiny4 := topo.TinyScale()
		tiny4.CoreUplinksPerAgg = 2 // 4 paths on the tiny fabric
		configs = []struct {
			scale ScaleLevel
			p     topo.Params
		}{
			{ScaleTiny, topo.TinyScale()},
			{ScaleTiny, tiny4},
		}
	}

	// Each (fabric, scheme) pair is an independent simulation point.
	type point struct {
		ci     int
		scheme Scheme
	}
	var points []point
	for ci := range configs {
		points = append(points, point{ci, ECMP}, point{ci, FlowBender})
	}
	name := func(pt point) string {
		return o.pointLabel("topodep/fabric=%d/%s/seed=%d", pt.ci, pt.scheme, o.Seed)
	}
	outs := fanOut(o, points, name, func(opt Options, pt point) float64 {
		opt.Scale = configs[pt.ci].scale
		return opt.runAllToAll(allToAllSpec{scheme: pt.scheme, load: res.Load, params: &configs[pt.ci].p}).FCT.All().Mean()
	})
	for ci, c := range configs {
		ecmp, fb := outs[2*ci], outs[2*ci+1]
		imp := stats.Ratio(ecmp, fb)
		paths := c.p.PathsBetweenPods()
		res.Paths = append(res.Paths, paths)
		res.Improvement = append(res.Improvement, imp)
		res.VarFactor = append(res.VarFactor, 1-1/float64(paths))
		o.logf("topodep: P=%d ecmp=%.3gms fb=%.3gms improvement=%.2fx", paths, ecmp*1000, fb*1000, imp)
	}
	return res
}

// Print writes the path-diversity comparison.
func (r *TopoDepResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Topological dependence (§4.3.2): FlowBender improvement vs path diversity, load %.0f%%\n", r.Load*100)
	for i := range r.Paths {
		fmt.Fprintf(w, "  P=%d paths: mean-latency improvement over ECMP %.2fx (binomial variance factor 1-1/P = %.3f)\n",
			r.Paths[i], r.Improvement[i], r.VarFactor[i])
	}
	fmt.Fprintln(w, "  (paper: improvement is nearly independent of P because R = L/P stays fixed)")
}
