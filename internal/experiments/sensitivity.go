package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"flowbender/internal/core"
	"flowbender/internal/stats"
)

// SensitivityResult holds Figure 6 (sensitivity to N) or Figure 7
// (sensitivity to T): mean all-to-all latency normalized to the default
// parameter value.
type SensitivityResult struct {
	Param   string // "N" or "T"
	Values  []float64
	Default float64
	// Norm[i] is mean latency at Values[i] normalized to the default.
	Norm []float64
	// AbsMs[i] is the absolute mean latency in ms.
	AbsMs []float64
	// StdMs[i] is the across-seed stddev of the mean latency (0 with one
	// seed).
	StdMs []float64
	Load  float64
	// Seeds is the replication count the sweep was aggregated over.
	Seeds int
}

// SensitivityN reproduces Figure 6: FlowBender with N in {1,2,3,4} on the
// 40%-load all-to-all workload, mean latency normalized to N=1.
func SensitivityN(o Options) *SensitivityResult {
	res := &SensitivityResult{Param: "N", Values: []float64{1, 2, 3, 4}, Default: 1, Load: 0.4}
	res.run(o, func(v float64) core.Config { return core.Config{N: int(v)} })
	return res
}

// SensitivityT reproduces Figure 7: FlowBender with T in {1%,5%,10%,20%} on
// the 40%-load all-to-all workload, mean latency normalized to T=5%.
func SensitivityT(o Options) *SensitivityResult {
	res := &SensitivityResult{Param: "T", Values: []float64{0.01, 0.05, 0.10, 0.20}, Default: 0.05, Load: 0.4}
	res.run(o, func(v float64) core.Config { return core.Config{T: v} })
	return res
}

func (r *SensitivityResult) run(o Options, cfgOf func(v float64) core.Config) {
	reps := o.seeds()
	r.Seeds = reps
	label := func(v float64) string { return fmt.Sprintf("%s=%g/FlowBender", r.Param, v) }
	outs := must(runPoints(o, "sensitivity", reps, r.Values, label, func(o Options, v float64) float64 {
		return o.runAllToAll(allToAllSpec{scheme: FlowBender, fb: cfgOf(v), load: r.Load}).FCT.All().Mean()
	}))

	abs := make([]float64, len(r.Values))
	r.StdMs = make([]float64, len(r.Values))
	var def float64
	for vi, v := range r.Values {
		s := stats.Summarize(outs[vi*reps : (vi+1)*reps])
		abs[vi] = s.Mean
		r.StdMs[vi] = s.Std * 1000
		if v == r.Default {
			def = abs[vi]
		}
		o.logf("sensitivity %s=%v: mean=%.3gms", r.Param, v, abs[vi]*1000)
	}
	r.AbsMs = make([]float64, len(abs))
	r.Norm = make([]float64, len(abs))
	for i := range abs {
		r.AbsMs[i] = abs[i] * 1000
		r.Norm[i] = stats.Ratio(abs[i], def)
	}
}

// Print writes the sensitivity sweep as a table.
func (r *SensitivityResult) Print(w io.Writer) {
	fig := "Figure 6"
	if r.Param == "T" {
		fig = "Figure 7"
	}
	fmt.Fprintf(w, "%s: FlowBender sensitivity to %s (mean latency normalized to default %v, load %.0f%%)\n",
		fig, r.Param, r.Default, r.Load*100)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if r.Seeds > 1 {
		fmt.Fprintf(tw, "%s\tnormalized mean\tabs mean (ms)\tstddev over %d seeds (ms)\n", r.Param, r.Seeds)
	} else {
		fmt.Fprintf(tw, "%s\tnormalized mean\tabs mean (ms)\n", r.Param)
	}
	for i, v := range r.Values {
		label := fmt.Sprintf("%g", v)
		if r.Param == "T" {
			label = fmt.Sprintf("%g%%", v*100)
		}
		if r.Seeds > 1 {
			fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\n", label, r.Norm[i], r.AbsMs[i], r.StdMs[i])
		} else {
			fmt.Fprintf(tw, "%s\t%.3f\t%.3f\n", label, r.Norm[i], r.AbsMs[i])
		}
	}
	tw.Flush()
}
