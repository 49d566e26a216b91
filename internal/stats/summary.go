package stats

import "math"

// Summary is the mean ± stddev reduction of a set of replicate
// measurements — one value per seed of a multi-seed experiment run.
type Summary struct {
	Mean float64
	Std  float64 // population standard deviation across replicates
	N    int     // number of finite replicates
}

// Summarize reduces replicate values to a Summary. Non-finite replicates
// (NaN from empty bins or failed points, ±Inf from overflowed upstream
// arithmetic) are skipped — a single +Inf would otherwise make Mean
// infinite and Std NaN, silently poisoning a multi-seed row. With no finite
// values both Mean and Std are NaN.
func Summarize(xs []float64) Summary {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	sum, n := 0.0, 0
	for _, x := range xs {
		if finite(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return Summary{Mean: math.NaN(), Std: math.NaN()}
	}
	mean := sum / float64(n)
	sq := 0.0
	for _, x := range xs {
		if finite(x) {
			d := x - mean
			sq += d * d
		}
	}
	return Summary{Mean: mean, Std: math.Sqrt(sq / float64(n)), N: n}
}
