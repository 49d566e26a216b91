package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Histogram is a logarithmically bucketed histogram for positive values
// (latencies, sizes): each bucket spans a fixed multiplicative factor.
type Histogram struct {
	// Base is the lower bound of the first bucket and Factor the growth
	// per bucket; values below Base land in bucket 0, values above the last
	// bucket extend the histogram.
	Base   float64
	Factor float64

	counts  []int64
	dropped int64
}

// maxHistogramBuckets bounds the bucket array: a finite-but-huge value (or a
// Factor set barely above 1) would otherwise compute an index in the
// billions and allocate until OOM. Observations past the bound land in the
// last bucket. 2^16 buckets at Factor 2 cover base·2^65536 — far beyond any
// finite float64 under sane factors, so the clamp only ever fires on
// degenerate configurations.
const maxHistogramBuckets = 1 << 16

// NewHistogram creates a histogram with the given first-bucket lower bound
// and per-bucket growth factor (> 1).
func NewHistogram(base, factor float64) *Histogram {
	if base <= 0 {
		base = 1e-6
	}
	if factor <= 1 {
		factor = 2
	}
	return &Histogram{Base: base, Factor: factor}
}

// base and factor apply NewHistogram's clamps lazily, so a zero-value or
// hand-initialized Histogram cannot divide by log(1)=0 or log(0).
func (h *Histogram) base() float64 {
	if h.Base <= 0 || math.IsNaN(h.Base) || math.IsInf(h.Base, 0) {
		return 1e-6
	}
	return h.Base
}

func (h *Histogram) factor() float64 {
	if !(h.Factor > 1) || math.IsInf(h.Factor, 0) {
		return 2
	}
	return h.Factor
}

// Add records one observation. NaN and ±Inf are dropped (see Dropped): NaN
// previously landed silently in bucket 0 and +Inf computed an infinite
// bucket index.
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.dropped++
		return
	}
	idx := 0
	if base := h.base(); v > base {
		idx = int(math.Ceil(math.Log(v/base) / math.Log(h.factor())))
		if idx < 0 {
			idx = 0
		}
		if idx >= maxHistogramBuckets {
			idx = maxHistogramBuckets - 1
		}
	}
	for idx >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[idx]++
}

// Dropped returns the number of non-finite observations rejected by Add.
func (h *Histogram) Dropped() int64 { return h.dropped }

// Buckets returns (upper bound, count) pairs for non-empty tail-trimmed
// buckets.
func (h *Histogram) Buckets() ([]float64, []int64) {
	ups := make([]float64, len(h.counts))
	for i := range h.counts {
		ups[i] = h.base() * math.Pow(h.factor(), float64(i))
	}
	return ups, append([]int64(nil), h.counts...)
}

// Render writes an ASCII bar chart of the histogram, scaled to width.
func (h *Histogram) Render(w io.Writer, unit string, width int) {
	if width <= 0 {
		width = 40
	}
	ups, counts := h.Buckets()
	var max int64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		fmt.Fprintln(w, "(empty histogram)")
		return
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		bar := strings.Repeat("#", int(float64(c)/float64(max)*float64(width))+1)
		fmt.Fprintf(w, "%12.3g %-4s %6d %s\n", ups[i], unit, c, bar)
	}
}
