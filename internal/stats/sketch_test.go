package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the reference implementation: Sample.Percentile on a
// private copy.
func exactQuantile(xs []float64, q float64) float64 {
	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(q * 100)
}

// bits compares float64s for bit identity, distinguishing NaN payloads from
// values and 0 from -0 — "identical rendered output" demands nothing less.
func bits(v float64) uint64 { return math.Float64bits(v) }

// adversarialInputs are the distributions the issue calls out plus the
// shapes that historically break log-bucket sketches.
func adversarialInputs(rng *rand.Rand, n int) map[string][]float64 {
	sorted := make([]float64, n)
	for i := range sorted {
		sorted[i] = float64(i+1) * 1e-3
	}
	reverse := append([]float64(nil), sorted...)
	for i, j := 0, len(reverse)-1; i < j; i, j = i+1, j-1 {
		reverse[i], reverse[j] = reverse[j], reverse[i]
	}
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 0.042
	}
	bimodal := make([]float64, n)
	for i := range bimodal {
		if i%2 == 0 {
			bimodal[i] = 1e-4 * (1 + rng.Float64())
		} else {
			bimodal[i] = 10 * (1 + rng.Float64())
		}
	}
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64() * 5
	}
	lognormal := make([]float64, n)
	for i := range lognormal {
		lognormal[i] = math.Exp(rng.NormFloat64() * 3)
	}
	huge := make([]float64, n)
	for i := range huge {
		// Extreme durations near 2^53 ns expressed in seconds, the regime
		// where PR 1 found CDF.Mean overflowing.
		huge[i] = (1 << 53) * 1e-9 * (0.5 + rng.Float64())
	}
	return map[string][]float64{
		"sorted":    sorted,
		"reverse":   reverse,
		"constant":  constant,
		"bimodal":   bimodal,
		"uniform":   uniform,
		"lognormal": lognormal,
		"huge":      huge,
	}
}

var quantileProbes = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}

// TestSketchExactBitIdentical: below the cap, every query must be
// bit-identical to Sample, including across interleaved Mean/Percentile
// calls (Percentile sorts in place, changing Mean's summation order — the
// sketch must reproduce even that).
func TestSketchExactBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, xs := range adversarialInputs(rng, 500) {
		t.Run(name, func(t *testing.T) {
			var sm Sample
			sk := &Sketch{}
			for _, x := range xs {
				sm.Add(x)
				sk.Add(x)
			}
			if sk.Collapsed() {
				t.Fatalf("collapsed below cap (n=%d)", len(xs))
			}
			// Pre-sort Mean (insertion order), then quantiles (sorting), then
			// post-sort Mean (ascending order) — all three must match.
			if g, w := sk.Mean(), sm.Mean(); bits(g) != bits(w) {
				t.Errorf("pre-sort Mean: sketch %v sample %v", g, w)
			}
			for _, q := range quantileProbes {
				if g, w := sk.Percentile(q*100), sm.Percentile(q*100); bits(g) != bits(w) {
					t.Errorf("P%v: sketch %v sample %v", q*100, g, w)
				}
			}
			if g, w := sk.Mean(), sm.Mean(); bits(g) != bits(w) {
				t.Errorf("post-sort Mean: sketch %v sample %v", g, w)
			}
			if g, w := sk.Max(), sm.Max(); bits(g) != bits(w) {
				t.Errorf("Max: sketch %v sample %v", g, w)
			}
			if sk.N() != int64(sm.N()) {
				t.Errorf("N: sketch %d sample %d", sk.N(), sm.N())
			}
		})
	}
}

// TestSketchEmpty mirrors Sample's NaN-when-empty contract.
func TestSketchEmpty(t *testing.T) {
	var sk Sketch
	for _, v := range []float64{sk.Mean(), sk.Max(), sk.Percentile(0), sk.Percentile(50)} {
		if !math.IsNaN(v) {
			t.Fatalf("empty sketch returned %v, want NaN", v)
		}
	}
	if sk.N() != 0 || sk.Buckets() != 0 {
		t.Fatalf("empty sketch N=%d buckets=%d", sk.N(), sk.Buckets())
	}
}

// TestSketchCollapsedErrorBound: above the cap every quantile must stay
// within the documented relative error of the exact quantile.
func TestSketchCollapsedErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, xs := range adversarialInputs(rng, 20000) {
		t.Run(name, func(t *testing.T) {
			sk := &Sketch{}
			for _, x := range xs {
				sk.Add(x)
			}
			if !sk.Collapsed() {
				t.Fatalf("not collapsed at n=%d", len(xs))
			}
			checkErrorBound(t, sk, xs)
			t.Logf("%d observations in %d buckets", sk.N(), sk.Buckets())
		})
	}
}

func checkErrorBound(t *testing.T, sk *Sketch, xs []float64) {
	t.Helper()
	const alpha = DefaultSketchAccuracy
	for _, q := range quantileProbes {
		got := sk.Percentile(q * 100)
		want := exactQuantile(xs, q)
		// Positive-value bound: |got-want| <= alpha * want. Interpolation
		// between two alpha-accurate order statistics stays alpha-accurate
		// relative to the interpolated exact value (convex combination), and
		// min/max clamping only ever moves the estimate toward the truth.
		tol := alpha * math.Abs(want)
		if math.Abs(want) < SketchMinValue {
			tol = SketchMinValue
		}
		if math.Abs(got-want) > tol*(1+1e-9) {
			t.Errorf("q=%v: got %v want %v (rel err %.4g > %v)",
				q, got, want, math.Abs(got-want)/math.Abs(want), alpha)
		}
	}
	if g, w := sk.Percentile(0), exactQuantile(xs, 0); bits(g) != bits(w) {
		t.Errorf("collapsed Min %v want exact %v", g, w)
	}
	if g, w := sk.Max(), exactQuantile(xs, 1); bits(g) != bits(w) {
		t.Errorf("collapsed Max %v want exact %v", g, w)
	}
}

// TestSketchNegativeAndZero: the bucket walk must order negatives before
// the zero bucket before positives.
func TestSketchNegativeAndZero(t *testing.T) {
	sk := &Sketch{capN: 8}
	xs := []float64{-5, -1, -0.25, 0, 1e-13, 0.25, 1, 5, 25, 125, 625}
	for _, x := range xs {
		sk.Add(x)
	}
	if !sk.Collapsed() {
		t.Fatal("want collapsed")
	}
	for _, q := range quantileProbes {
		got := sk.Percentile(q * 100)
		want := exactQuantile(xs, q)
		tol := DefaultSketchAccuracy*math.Abs(want) + SketchMinValue
		if math.Abs(got-want) > tol*(1+1e-9) {
			t.Errorf("q=%v: got %v want %v", q, got, want)
		}
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p++ {
		v := sk.Percentile(p)
		if v < prev {
			t.Fatalf("percentiles not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

// TestSketchNonFinite: NaN/±Inf are dropped, never recorded: N leaves them
// out and the quantiles are those of the finite observations alone, also
// after a merge.
func TestSketchNonFinite(t *testing.T) {
	sk := &Sketch{}
	sk.Add(math.NaN())
	sk.Add(2)
	sk.Add(math.Inf(1))
	sk.Add(math.Inf(-1))
	sk.Add(1)
	if sk.N() != 2 {
		t.Fatalf("N=%d, want 2", sk.N())
	}
	merged := &Sketch{}
	merged.Merge(sk)
	for _, s := range []*Sketch{sk, merged} {
		if got := s.Percentile(0); got != 1 {
			t.Fatalf("P0=%v, want 1", got)
		}
		if got := s.Percentile(100); got != 2 {
			t.Fatalf("P100=%v, want 2", got)
		}
		if got := s.Percentile(50); got != 1.5 {
			t.Fatalf("P50=%v, want 1.5", got)
		}
	}
}

// splitMerge partitions xs into k contiguous chunks, sketches each, and
// merges left to right.
func splitMerge(xs []float64, k int, exactCap int) *Sketch {
	parts := make([]*Sketch, k)
	for i := range parts {
		parts[i] = &Sketch{capN: exactCap}
	}
	for i, x := range xs {
		parts[i*k/len(xs)].Add(x)
	}
	out := &Sketch{capN: exactCap}
	for _, p := range parts {
		out.Merge(p)
	}
	return out
}

// TestSketchMergeDeterministic: any merge grouping must render bit-identical
// quantiles.
func TestSketchMergeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{50, 5000, 30000} {
		for name, xs := range adversarialInputs(rng, n) {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				whole := &Sketch{}
				for _, x := range xs {
					whole.Add(x)
				}
				for _, k := range []int{1, 2, 4, 8} {
					m := splitMerge(xs, k, 0)
					if m.N() != whole.N() {
						t.Fatalf("k=%d: N %d != %d", k, m.N(), whole.N())
					}
					for _, q := range quantileProbes {
						if g, w := m.Percentile(q*100), whole.Percentile(q*100); bits(g) != bits(w) {
							t.Errorf("k=%d q=%v: merged %v whole %v", k, q, g, w)
						}
					}
					if g, w := m.Max(), whole.Max(); bits(g) != bits(w) {
						t.Errorf("k=%d Max: %v != %v", k, g, w)
					}
				}
			})
		}
	}
}

// TestSketchMergeAssociative: ((a·b)·c) and (a·(b·c)) must agree on every
// quantile bit for bit, in collapsed and exact regimes.
func TestSketchMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, exactCap := range []int{4, DefaultSketchCap} {
		for trial := 0; trial < 20; trial++ {
			var chunks [3][]float64
			for i := range chunks {
				n := 1 + rng.Intn(40)
				for j := 0; j < n; j++ {
					chunks[i] = append(chunks[i], math.Exp(rng.NormFloat64()*2))
				}
			}
			mk := func(xs []float64) *Sketch {
				s := &Sketch{capN: exactCap}
				for _, x := range xs {
					s.Add(x)
				}
				return s
			}
			left := mk(chunks[0])
			left.Merge(mk(chunks[1]))
			left.Merge(mk(chunks[2]))
			bc := mk(chunks[1])
			bc.Merge(mk(chunks[2]))
			right := mk(chunks[0])
			right.Merge(bc)
			if left.N() != right.N() {
				t.Fatalf("cap=%d: N %d != %d", exactCap, left.N(), right.N())
			}
			for _, q := range quantileProbes {
				if g, w := left.Percentile(q*100), right.Percentile(q*100); bits(g) != bits(w) {
					t.Fatalf("cap=%d trial=%d q=%v: %v != %v", exactCap, trial, q, g, w)
				}
			}
		}
	}
}

// TestSketchMergeExactStaysExact: merging small exact sketches below the cap
// must remain bit-identical to one flat Sample.
func TestSketchMergeExactStaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	m := splitMerge(xs, 4, 0)
	if m.Collapsed() {
		t.Fatal("collapsed below cap")
	}
	var sm Sample
	for _, x := range xs {
		sm.Add(x)
	}
	for _, q := range quantileProbes {
		if g, w := m.Percentile(q*100), sm.Percentile(q*100); bits(g) != bits(w) {
			t.Errorf("q=%v: merged %v sample %v", q, g, w)
		}
	}
}

// TestSketchFlatMemory: bucket count must not grow with observation count.
func TestSketchFlatMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sk := &Sketch{capN: 128}
	var at100k int
	for i := 0; i < 1_000_000; i++ {
		// FCT-like range: 100 µs .. 10 s.
		sk.Add(1e-4 * math.Exp(rng.Float64()*math.Log(1e5)))
		if i == 100_000 {
			at100k = sk.Buckets()
		}
	}
	if sk.Buckets() > at100k+32 {
		t.Fatalf("buckets grew with n: %d at 100k, %d at 1M", at100k, sk.Buckets())
	}
	// 5 decades at 1% accuracy is ~ log(1e5)/log(gamma) ≈ 575 buckets.
	if sk.Buckets() > 1200 {
		t.Fatalf("bucket count %d implausibly large for 5 decades", sk.Buckets())
	}
}

// TestBinnedSketchMatchesBinnedSample: the binned wrapper must agree with
// BinnedSample bin for bin below the cap, including the All() reduction.
func TestBinnedSketchMatchesBinnedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var bs BinnedSample
	var bk BinnedSketch
	for i := 0; i < 2000; i++ {
		size := int64(math.Exp(rng.Float64() * math.Log(5e7)))
		fct := rng.Float64()
		bs.Add(size, fct)
		bk.Add(size, fct)
	}
	for b := 0; b < int(NumBins); b++ {
		sm, sk := &bs.Bins[b], &bk.Bins[b]
		if int64(sm.N()) != sk.N() {
			t.Fatalf("bin %d: N %d != %d", b, sm.N(), sk.N())
		}
		for _, q := range quantileProbes {
			if g, w := sk.Percentile(q*100), sm.Percentile(q*100); bits(g) != bits(w) {
				t.Errorf("bin %d q=%v: %v != %v", b, q, g, w)
			}
		}
	}
	allS, allK := bs.All(), bk.All()
	for _, q := range quantileProbes {
		if g, w := allK.Percentile(q*100), allS.Percentile(q*100); bits(g) != bits(w) {
			t.Errorf("All q=%v: %v != %v", q, g, w)
		}
	}
	if g, w := allK.Mean(), allS.Mean(); bits(g) != bits(w) {
		t.Errorf("All Mean: %v != %v", g, w)
	}
}

// --- Summarize regression tests ---

// TestSummarizeNonFinite: an Inf replicate used to make Mean=Inf, Std=NaN.
func TestSummarizeNonFinite(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, math.Inf(1), math.NaN(), math.Inf(-1)})
	if s.N != 3 {
		t.Fatalf("N=%d, want 3", s.N)
	}
	if s.Mean != 2 {
		t.Fatalf("Mean=%v, want 2", s.Mean)
	}
	if math.IsNaN(s.Std) || math.IsInf(s.Std, 0) {
		t.Fatalf("Std=%v", s.Std)
	}
}

// TestSketchExtremeDurations: sketch error bound must hold at the 2^53 ns
// scale in both regimes.
func TestSketchExtremeDurations(t *testing.T) {
	base := math.Exp2(53) // ns
	var xs []float64
	for i := 0; i < 10000; i++ {
		xs = append(xs, base*(0.5+float64(i%1000)/1000))
	}
	sk := &Sketch{capN: 128}
	for _, x := range xs {
		sk.Add(x)
	}
	if !sk.Collapsed() {
		t.Fatal("want collapsed")
	}
	checkErrorBound(t, sk, xs)
}

// TestSketchQuantileMatchesSortedRank cross-checks the collapsed bucket
// walk against a brute-force rank computation on the representatives.
func TestSketchQuantileMatchesSortedRank(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sk := &Sketch{capN: 4}
	for i := 0; i < 3000; i++ {
		sk.Add(math.Exp(rng.NormFloat64() * 2))
	}
	var reps []float64
	for _, q := range quantileProbes {
		p := q * 100
		got := sk.Percentile(p)
		var want float64
		switch {
		case p <= 0:
			want = sk.min // boundaries report the exactly tracked extremes
		case p >= 100:
			want = sk.max
		default:
			// Reference: expand buckets into a sorted slice of
			// representatives, interpolate at rank p/100*(n-1) as the walk
			// does, then clamp to the exact extremes.
			reps = reps[:0]
			for k, c := range sk.pos {
				for j := int64(0); j < c; j++ {
					reps = append(reps, sk.rep(k))
				}
			}
			sort.Float64s(reps)
			rank := p / 100 * float64(len(reps)-1)
			lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
			want = reps[lo]
			if hi != lo {
				frac := rank - float64(lo)
				want = reps[lo]*(1-frac) + reps[hi]*frac
			}
			if want < sk.min {
				want = sk.min
			}
			if want > sk.max {
				want = sk.max
			}
		}
		if bits(got) != bits(want) {
			t.Errorf("q=%v: walk %v brute-force %v", q, got, want)
		}
	}
}

// In the exact regime Percentile sorts in place and Mean sums in the current
// order, so on these seven values Mean moves by an ulp across a Percentile.
// Each reading must still be the exact sample's taken in the same order —
// the bits callers' tables depend on.
func TestSketchMeanAroundPercentileMatchesSample(t *testing.T) {
	xs := []float64{1.9, 0.3, 2.7, 0.1, 3.1, 1.3, 2.2}
	var sk Sketch
	var sa Sample
	for _, x := range xs {
		sk.Add(x)
		sa.Add(x)
	}
	before, sampleBefore := sk.Mean(), sa.Mean()
	if math.Float64bits(before) != math.Float64bits(sampleBefore) {
		t.Fatalf("Mean before Percentile %v, Sample's %v", before, sampleBefore)
	}
	if p, sp := sk.Percentile(50), sa.Percentile(50); math.Float64bits(p) != math.Float64bits(sp) {
		t.Fatalf("Percentile(50) %v, Sample's %v", p, sp)
	}
	after, sampleAfter := sk.Mean(), sa.Mean()
	if math.Float64bits(after) != math.Float64bits(sampleAfter) {
		t.Fatalf("Mean after Percentile %v, Sample's %v", after, sampleAfter)
	}
	if before == after {
		t.Fatalf("Mean %v both before and after Percentile: the example no longer shows the order hazard", before)
	}
}

// Buckets returns the number of live logarithmic buckets (0 while exact) —
// the collapsed regime's memory footprint in units of one map entry.
func (s *Sketch) Buckets() int {
	if !s.collapsed {
		return 0
	}
	n := len(s.pos) + len(s.neg)
	if s.zero > 0 {
		n++
	}
	return n
}
