package workload

import (
	"math"
	"strings"
	"testing"

	"flowbender/internal/sim"
)

// FuzzCDF feeds arbitrary text through ParseCDF and, for every input the
// parser accepts, checks the distribution's semantic contracts: Validate
// agrees, Quantile is monotone and within the size bounds, Sample stays in
// bounds, and the analytic Mean lands inside [min, max]. Nothing may
// panic either way.
func FuzzCDF(f *testing.F) {
	f.Add("1000 0\n6000 0.5\n20000 1\n")
	f.Add("# web search, truncated\n1000 0.15\n\n1333000 0.9\n3333000 1.0\n")
	f.Add("500 1\n")
	f.Add("1000 nan\n2000 1\n")
	f.Add("1000 0\n2000 0.5\n1500 1\n")                       // sizes not increasing
	f.Add("1000 0.9\n2000 0.2\n")                             // probabilities not monotone
	f.Add("1000 0\n2000 0.5\n")                               // does not end at 1
	f.Add("-5 0.5\n10 1\n")                                   // negative size
	f.Add("9223372036854775806 0.5\n9223372036854775807 1\n") // near-max sizes
	f.Add("1000\n")                                           // wrong field count
	f.Add("abc def\n")
	f.Add("1e3 1\n") // float size is rejected
	f.Add("1000 1 # trailing comment\n")

	f.Fuzz(func(t *testing.T, data string) {
		c, err := ParseCDF(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseCDF accepted a CDF that Validate rejects: %v\ninput: %q", err, data)
		}

		minB, maxB := c[0].Bytes, c[len(c)-1].Bytes
		prev := int64(math.MinInt64)
		for i := 0; i <= 100; i++ {
			q := c.Quantile(float64(i) / 100)
			if q < prev {
				t.Fatalf("Quantile not monotone: Q(%v)=%d < %d\ninput: %q", float64(i)/100, q, prev, data)
			}
			if q < minB || q > maxB {
				t.Fatalf("Quantile(%v)=%d outside [%d, %d]\ninput: %q", float64(i)/100, q, minB, maxB, data)
			}
			prev = q
		}
		// Out-of-range arguments clamp rather than misbehave.
		if q := c.Quantile(-1); q != c.Quantile(0) {
			t.Fatalf("Quantile(-1)=%d != Quantile(0)=%d", q, c.Quantile(0))
		}
		if q := c.Quantile(2); q != c.Quantile(1) {
			t.Fatalf("Quantile(2)=%d != Quantile(1)=%d", q, c.Quantile(1))
		}

		mean := c.Mean()
		// The interpolated mean must land inside the support. Allow 1 ulp
		// of slack for the float midpoint arithmetic at int64 extremes.
		lo, hi := float64(minB), float64(maxB)
		if !(mean >= math.Nextafter(lo, math.Inf(-1)) && mean <= math.Nextafter(hi, math.Inf(1))) {
			t.Fatalf("Mean()=%v outside [%d, %d]\ninput: %q", mean, minB, maxB, data)
		}

		rng := sim.NewRNG(1)
		for i := 0; i < 50; i++ {
			if s := c.Sample(rng); s < minB || s > maxB {
				t.Fatalf("Sample()=%d outside [%d, %d]\ninput: %q", s, minB, maxB, data)
			}
		}
	})
}
