package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanMaxMin(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Max()) || !math.IsNaN(s.Percentile(0)) {
		t.Fatal("empty sample should be NaN")
	}
	for _, x := range []float64{3, 1, 4, 1, 5} {
		s.Add(x)
	}
	if s.Mean() != 2.8 || s.Max() != 5 || s.Percentile(0) != 1 || s.N() != 5 {
		t.Fatalf("mean=%v max=%v min=%v n=%d", s.Mean(), s.Max(), s.Percentile(0), s.N())
	}
}

func TestPercentileExact(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 100: 100, 50: 50.5, 99: 99.01}
	for p, want := range cases {
		if got := s.Percentile(p); math.Abs(got-want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
}

func TestPercentileSingle(t *testing.T) {
	var s Sample
	s.Add(7)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := s.Percentile(p); got != 7 {
			t.Fatalf("P%v = %v", p, got)
		}
	}
}

func TestAddAfterPercentileResorts(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	_ = s.Percentile(50)
	s.Add(0.5)
	if got := s.Percentile(0); got != 0.5 {
		t.Fatalf("min after re-add = %v", got)
	}
}

func TestStddev(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if got := s.Stddev(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("stddev = %v, want 2", got)
	}
}

// Property: percentile is monotone in p and bounded by [min, max].
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		if len(xs) == 0 {
			return true
		}
		var s Sample
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		p1, p2 := float64(a%101), float64(b%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := s.Percentile(p1), s.Percentile(p2)
		return v1 <= v2 && v1 >= slices.Min(xs) && v2 <= slices.Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile agrees with a direct order-statistic at the exact
// rank points p = i/(n-1)*100.
func TestPercentileRankPointsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 2 {
			return true
		}
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var s Sample
		for _, x := range clean {
			s.Add(x)
		}
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		n := len(sorted)
		for i := 0; i < n; i++ {
			p := float64(i) / float64(n-1) * 100
			if math.Abs(s.Percentile(p)-sorted[i]) > 1e-6*math.Max(1, math.Abs(sorted[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinOf(t *testing.T) {
	cases := map[int64]SizeBin{
		1_000:      BinTiny,
		10_000:     BinTiny,
		10_001:     BinSmall,
		128_000:    BinSmall,
		128_001:    BinMedium,
		1_000_000:  BinMedium,
		1_000_001:  BinLarge,
		50_000_000: BinLarge,
	}
	for size, want := range cases {
		if got := BinOf(size); got != want {
			t.Errorf("BinOf(%d) = %v, want %v", size, got, want)
		}
	}
}

func TestBinnedSample(t *testing.T) {
	var b BinnedSample
	b.Add(5_000, 1)
	b.Add(50_000, 2)
	b.Add(500_000, 3)
	b.Add(5_000_000, 4)
	for i := 0; i < int(NumBins); i++ {
		if b.Bins[i].N() != 1 {
			t.Fatalf("bin %d has %d samples", i, b.Bins[i].N())
		}
	}
	if got := b.All().Mean(); got != 2.5 {
		t.Fatalf("All().Mean() = %v", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(4, 2) != 2 {
		t.Fatal("Ratio(4,2)")
	}
	if !math.IsNaN(Ratio(1, 0)) || !math.IsNaN(Ratio(math.NaN(), 1)) {
		t.Fatal("Ratio should be NaN for degenerate inputs")
	}
}

func TestBinStrings(t *testing.T) {
	for i := 0; i < int(NumBins); i++ {
		if SizeBin(i).String() == "" {
			t.Fatalf("bin %d has empty label", i)
		}
	}
}
