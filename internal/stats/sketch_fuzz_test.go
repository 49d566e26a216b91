package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzSketchMerge decodes arbitrary bytes into float64 observations, splits
// them three ways at fuzzer-chosen points, and checks the sketch's
// contracts on whatever multiset falls out: merge is associative with
// bit-identical quantiles, N counts exactly the finite observations and a
// sketch of those alone has the same quantiles bit for bit,
// quantiles are monotone and clamped to [min, Max], the collapsed error
// bound holds for positive finite data, and nothing panics — including on
// NaN/Inf payloads, denormals, negative zero, and values near 2^53.
func FuzzSketchMerge(f *testing.F) {
	enc := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(1, 2, 3, 4, 5), uint8(2), uint8(4), uint8(0))
	f.Add(enc(0.042, 0.042, 0.042, 0.042), uint8(1), uint8(2), uint8(1))
	f.Add(enc(math.NaN(), math.Inf(1), math.Inf(-1), 1), uint8(1), uint8(3), uint8(0))
	f.Add(enc(1e-4, 10, 1e-4, 10, 1e-4, 10), uint8(3), uint8(3), uint8(2))
	f.Add(enc(-5, -1, 0, math.Copysign(0, -1), 5e-13, 1), uint8(2), uint8(4), uint8(1))
	f.Add(enc(math.Exp2(53), math.Exp2(53)+1024, math.Exp2(53)-1024), uint8(1), uint8(2), uint8(1))
	f.Add(enc(5e-324, math.MaxFloat64, 1), uint8(1), uint8(2), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, split1, split2, capSel uint8) {
		var xs []float64
		for i := 0; i+8 <= len(data) && len(xs) < 4096; i += 8 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		if len(xs) == 0 {
			return
		}
		exactCap := []int{0, 1, 4, 64}[int(capSel)%4]
		a := int(split1) % (len(xs) + 1)
		b := a + int(split2)%(len(xs)-a+1)
		chunks := [][]float64{xs[:a], xs[a:b], xs[b:]}

		mk := func(vals []float64) *Sketch {
			s := &Sketch{capN: exactCap}
			for _, v := range vals {
				s.Add(v)
			}
			return s
		}

		whole := mk(xs)

		// Associativity: ((c0·c1)·c2) vs (c0·(c1·c2)).
		left := mk(chunks[0])
		left.Merge(mk(chunks[1]))
		left.Merge(mk(chunks[2]))
		bc := mk(chunks[1])
		bc.Merge(mk(chunks[2]))
		right := mk(chunks[0])
		right.Merge(bc)

		var fs []float64 // the finite observations, in order
		for _, v := range xs {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				fs = append(fs, v)
			}
		}
		finite := int64(len(fs))
		for _, s := range []*Sketch{whole, left, right} {
			if s.N() != finite {
				t.Fatalf("count drift: N=%d want %d finite", s.N(), finite)
			}
		}

		probes := []float64{0, 0.01, 0.5, 0.99, 1}
		finiteOnly := mk(fs)
		for _, q := range probes {
			l, r := left.Percentile(q*100), right.Percentile(q*100)
			if math.Float64bits(l) != math.Float64bits(r) {
				t.Fatalf("merge not associative at q=%v: %v != %v", q, l, r)
			}
			w, f := whole.Percentile(q*100), finiteOnly.Percentile(q*100)
			if math.Float64bits(w) != math.Float64bits(f) {
				t.Fatalf("non-finite observations moved q=%v: %v, finite-only %v", q, w, f)
			}
		}

		if finite == 0 {
			return
		}
		// Monotone and inside [min, Max] up to interpolation rounding: the
		// exact regime reproduces Sample's a*(1-f)+a*f arithmetic, which can
		// land an ulp below a, so the invariants hold to ~1e-12 relative,
		// not bit-exactly.
		ulps := func(v float64) float64 { return math.Abs(v) * 1e-12 }
		for _, s := range []*Sketch{whole, left} {
			prev := math.Inf(-1)
			for _, q := range probes {
				v := s.Percentile(q * 100)
				if math.IsNaN(v) {
					t.Fatalf("NaN quantile with %d finite observations", finite)
				}
				if v < prev-ulps(prev) {
					t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
				}
				if v < s.min-ulps(s.min) || v > s.Max()+ulps(s.Max()) {
					t.Fatalf("quantile %v outside [%v, %v]", v, s.min, s.Max())
				}
				prev = v
			}
		}
		// Error bound on positive data inside [SketchMinValue,
		// SketchMaxValue], the range the documented guarantee covers.
		allPositive := true
		for _, v := range xs {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && (v < SketchMinValue || v > SketchMaxValue) {
				allPositive = false
				break
			}
		}
		if allPositive {
			for _, q := range probes {
				got := whole.Percentile(q * 100)
				want := exactQuantile(fs, q)
				if math.Abs(got-want) > DefaultSketchAccuracy*want*(1+1e-9) {
					t.Fatalf("q=%v: got %v want %v (bound %v)", q, got, want, DefaultSketchAccuracy)
				}
			}
		}
	})
}
