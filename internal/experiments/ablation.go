package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"flowbender/internal/core"
	"flowbender/internal/sim"
	"flowbender/internal/stats"
)

// AblationVariant is one FlowBender design option under test.
type AblationVariant struct {
	Name string
	Cfg  core.Config
}

// DefaultAblations covers the paper's §3.4 options and §5 extensions:
// randomized N desync, EWMA smoothing of F, the reroute-rate limiter, and
// the size of the V range (the paper notes even 2 values work). Configs are
// taken verbatim (no evaluation defaults), so the first entry reproduces
// this harness's default stack and the second the paper's minimal scheme.
func DefaultAblations() []AblationVariant {
	return []AblationVariant{
		{Name: "evaluation default (gap=5 + desync)", Cfg: core.Config{MinEpochGap: StabilityGap, DesyncN: true}},
		{Name: "paper minimal (T=5%,N=1,V=8)", Cfg: core.Config{}},
		{Name: "desync only", Cfg: core.Config{DesyncN: true}},
		{Name: "gap=5 only", Cfg: core.Config{MinEpochGap: StabilityGap}},
		{Name: "reroute gap >= 10 RTTs", Cfg: core.Config{MinEpochGap: 10, DesyncN: true}},
		{Name: "N=2", Cfg: core.Config{N: 2, MinEpochGap: StabilityGap}},
		{Name: "N=2 + desync (N±1)", Cfg: core.Config{N: 2, MinEpochGap: StabilityGap, DesyncN: true}},
		{Name: "EWMA F (gamma=0.5)", Cfg: core.Config{EWMAGamma: 0.5, MinEpochGap: StabilityGap, DesyncN: true}},
		{Name: "V range = 2", Cfg: core.Config{NumValues: 2, MinEpochGap: StabilityGap, DesyncN: true}},
		{Name: "V range = 16", Cfg: core.Config{NumValues: 16, MinEpochGap: StabilityGap, DesyncN: true}},
	}
}

// AblationResult compares FlowBender variants on the 40% all-to-all
// workload, normalized to the default configuration, plus the saturated
// ToR-to-ToR validation scenario where the stability options matter most
// (every path carries several elephants, so an unlimited N=1 controller
// reroutes every congested RTT and keeps DCTCP windows collapsed).
type AblationResult struct {
	Load     float64
	Variants []AblationVariant
	MeanNorm []float64
	P99Norm  []float64
	AbsMs    []float64
	Reroutes []int64

	// Validation-scenario results (k = 3 * paths equal flows).
	ValFlows   int
	ValMeanMs  []float64
	ValMaxMs   []float64
	ValIdealMs float64
}

// Ablations runs the variant comparison. Every variant (in both the
// all-to-all and the saturated validation scenario) is an independent
// simulation point, so all of them fan out on the pool at once.
func Ablations(o Options) *AblationResult {
	res := &AblationResult{Load: 0.4, Variants: DefaultAblations()}

	// The saturated validation scenario: 3 flows per path.
	p := o.params()
	res.ValFlows = 3 * p.PathsBetweenPods()
	var size int64 = 50_000_000
	if o.Scale == ScaleTiny {
		size = 10_000_000
	}
	res.ValIdealMs = 3 * float64(size) * 8 / float64(p.LinkRateBps) * 1000

	type valOut struct{ mean, max float64 }
	a2aOuts := must(runPoints(o, "ablations", 1, res.Variants, func(v AblationVariant) string { return "a2a/" + v.Name },
		func(o Options, v AblationVariant) *runOutcome {
			return o.runAllToAll(allToAllSpec{scheme: FlowBender, fb: v.Cfg, rawFB: true, load: res.Load})
		}))
	valOuts := must(runPoints(o, "ablations", 1, res.Variants, func(v AblationVariant) string { return "val/" + v.Name },
		func(o Options, v AblationVariant) valOut {
			// The controller draws from the "flowbender" fork of the root
			// stream here, not of the scheme stream as everywhere else; the
			// goldens pin that.
			fb := v.Cfg
			if fb.RNG == nil {
				fb.RNG = sim.NewRNG(o.Seed).Fork("flowbender")
			}
			mean, max := o.runValidation(FlowBender, func(rng *sim.RNG) schemeSetup {
				return FlowBender.setup(rng, fb, true)
			}, res.ValFlows, size)
			return valOut{mean: mean, max: max}
		}))

	var baseMean, baseP99 float64
	for i, v := range res.Variants {
		out := a2aOuts[i]
		all := out.FCT.All()
		mean, p99 := all.Mean(), all.Percentile(99)
		if i == 0 {
			baseMean, baseP99 = mean, p99
		}
		res.MeanNorm = append(res.MeanNorm, stats.Ratio(mean, baseMean))
		res.P99Norm = append(res.P99Norm, stats.Ratio(p99, baseP99))
		res.AbsMs = append(res.AbsMs, mean*1000)
		res.Reroutes = append(res.Reroutes, out.Reroutes)
		o.logf("ablation: %-24s mean=%.3gms reroutes=%d", v.Name, mean*1000, out.Reroutes)
	}
	for i, v := range res.Variants {
		val := valOuts[i]
		res.ValMeanMs = append(res.ValMeanMs, val.mean)
		res.ValMaxMs = append(res.ValMaxMs, val.max)
		o.logf("ablation-validation: %-24s mean=%.1fms max=%.1fms", v.Name, val.mean, val.max)
	}
	return res
}

// Print writes the ablation table.
func (r *AblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "FlowBender design ablations (§3.4/§5 options), all-to-all at %.0f%% load, normalized to the first row\n", r.Load*100)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\tmean (norm)\tp99 (norm)\tmean (ms)\treroutes")
	for i, v := range r.Variants {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%d\n",
			v.Name, r.MeanNorm[i], r.P99Norm[i], r.AbsMs[i], r.Reroutes[i])
	}
	tw.Flush()

	fmt.Fprintf(w, "\nSaturated validation scenario (%d equal flows, ideal %.0f ms):\n", r.ValFlows, r.ValIdealMs)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\tmean FCT (ms)\tmax FCT (ms)")
	for i, v := range r.Variants {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\n", v.Name, r.ValMeanMs[i], r.ValMaxMs[i])
	}
	tw.Flush()
}
