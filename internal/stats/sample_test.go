package stats

import (
	"math"
	"sort"
)

// The exact samples below are the tests' oracle: a Sketch below its cap, a
// BinnedSketch below each bin's cap, must agree with them bit for bit. No
// run keeps every observation, so they live here rather than in the package.

// Sample is an accumulating collection of float64 observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (NaN when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Max returns the largest observation (NaN when empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics (NaN when empty).
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Stddev returns the population standard deviation (NaN when empty).
func (s *Sample) Stddev() float64 {
	n := len(s.xs)
	if n == 0 {
		return math.NaN()
	}
	mean := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

// Values returns the underlying observations (sorted if a percentile was
// computed). Callers must not modify the slice.
func (s *Sample) Values() []float64 { return s.xs }

// BinnedSample groups observations by flow-size bin.
type BinnedSample struct {
	Bins [NumBins]Sample
}

// Add records an observation for a flow of the given size.
func (b *BinnedSample) Add(size int64, x float64) { b.Bins[BinOf(size)].Add(x) }

// All returns a sample merging every bin.
func (b *BinnedSample) All() *Sample {
	var out Sample
	for i := range b.Bins {
		for _, x := range b.Bins[i].Values() {
			out.Add(x)
		}
	}
	return &out
}
