package stats

import (
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 10)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Add(v)
	}
	ups, counts := h.Buckets()
	// Buckets: <=1, <=10, <=100, <=1000.
	if len(counts) < 4 {
		t.Fatalf("buckets = %d", len(counts))
	}
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("counts = %v (ups %v)", counts, ups)
	}
	if histTotal(h) != 5 {
		t.Fatalf("total = %d", histTotal(h))
	}
}

// histTotal counts the observations a histogram holds, across its buckets.
func histTotal(h *Histogram) int64 {
	_, counts := h.Buckets()
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0.001, 10)
	for i := 0; i < 10; i++ {
		h.Add(0.01)
	}
	h.Add(1)
	var sb strings.Builder
	h.Render(&sb, "ms", 20)
	out := sb.String()
	if !strings.Contains(out, "#") || len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Fatalf("render output:\n%s", out)
	}
	var e Histogram
	sb.Reset()
	e.Render(&sb, "ms", 0)
	if !strings.Contains(sb.String(), "empty") {
		t.Fatal("empty render missing placeholder")
	}
}

func TestHistogramDegenerateParams(t *testing.T) {
	h := NewHistogram(-1, 0.5)
	h.Add(1)
	if h.Base <= 0 || h.Factor <= 1 {
		t.Fatal("degenerate params not corrected")
	}
}
