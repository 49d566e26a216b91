package stats

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 6})
	if s.Mean != 4 || s.N != 3 {
		t.Fatalf("mean=%v n=%d", s.Mean, s.N)
	}
	want := math.Sqrt(8.0 / 3.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std=%v want %v", s.Std, want)
	}
}

func TestSummarizeSingleValue(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.Mean != 3.5 || s.Std != 0 || s.N != 1 {
		t.Fatalf("got %+v", s)
	}
}

func TestSummarizeSkipsNaN(t *testing.T) {
	s := Summarize([]float64{math.NaN(), 1, 3, math.NaN()})
	if s.Mean != 2 || s.N != 2 {
		t.Fatalf("got %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	for _, xs := range [][]float64{nil, {math.NaN()}} {
		s := Summarize(xs)
		if !math.IsNaN(s.Mean) || !math.IsNaN(s.Std) || s.N != 0 {
			t.Fatalf("Summarize(%v) = %+v", xs, s)
		}
	}
}

// TestSummarizeMatchesSample: Summarize's two passes are Sample's Mean and
// Stddev over the finite replicates, bit for bit.
func TestSummarizeMatchesSample(t *testing.T) {
	xs := []float64{0.1, 7.3, math.Inf(1), 2.9e-3, math.NaN(), 11, 0.30000000000000004, 5.5}
	var s Sample
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			s.Add(x)
		}
	}
	got := Summarize(xs)
	if math.Float64bits(got.Mean) != math.Float64bits(s.Mean()) ||
		math.Float64bits(got.Std) != math.Float64bits(s.Stddev()) || got.N != s.N() {
		t.Fatalf("Summarize = %+v, Sample gives mean %v std %v n %d", got, s.Mean(), s.Stddev(), s.N())
	}
}
