package stats

import (
	"math"
	"sort"
)

// DefaultSketchAccuracy is the relative quantile error a collapsed Sketch
// guarantees: every reported quantile is within 1% of the exact quantile of
// the recorded multiset (for values >= SketchMinValue).
const DefaultSketchAccuracy = 0.01

// The bucket base every Sketch shares: gamma = (1+alpha)/(1-alpha) at alpha =
// DefaultSketchAccuracy, and maxIdx, the largest index whose representative
// stays finite (gamma^maxIdx a comfortable factor below MaxFloat64, and above
// SketchMaxValue). bucketBase evaluates them in float64, one rounding a
// step, not as exact constant arithmetic.
var gamma, logGamma, maxIdx = bucketBase(DefaultSketchAccuracy)

func bucketBase(alpha float64) (g, lg float64, top int) {
	g = (1 + alpha) / (1 - alpha)
	lg = math.Log(g)
	return g, lg, int(math.Floor(math.Log(math.MaxFloat64/16) / lg))
}

// DefaultSketchCap is the number of observations a Sketch holds exactly
// before collapsing to logarithmic buckets. Below the cap the sketch is
// bit-for-bit identical to an exact sample (the tests' Sample oracle); above
// it memory stays flat no matter how many observations arrive.
const DefaultSketchCap = 8192

// SketchMinValue is the smallest magnitude the bucketed representation
// distinguishes from zero: observations in (-SketchMinValue, SketchMinValue)
// land in a dedicated zero bucket and are reported as exactly 0. Flow
// completion times are ≥ 1 ns = 1e-9 s, three decades above it.
const SketchMinValue = 1e-12

// SketchMaxValue bounds the magnitude range the relative-error guarantee
// covers: above it the bucket index is clamped so representatives cannot
// overflow to +Inf, and accuracy degrades to "somewhere in the top bucket"
// (min/max stay exact). 1e300 is 292 decades above any plausible duration.
const SketchMaxValue = 1e300

// Sketch is a mergeable streaming quantile summary for float64
// observations (flow completion times, latencies).
//
// It has two regimes:
//
//   - Exact: up to DefaultSketchCap observations it stores raw
//     observations and reproduces an exact sample bit for bit — the same
//     in-place sort, the same linear interpolation between order statistics,
//     the same summation order for Mean. Experiments that fit in memory
//     render byte-identical output whether they keep every observation or
//     aggregate through a Sketch; the tests' Sample is that oracle.
//
//   - Collapsed: past the cap it folds every observation into DDSketch-style
//     logarithmic buckets (integer counts keyed by ceil(log_gamma|v|), where
//     gamma = (1+alpha)/(1-alpha)) plus exact min/max. Memory is bounded by
//     the number of distinct buckets — a few hundred for realistic FCT
//     ranges — independent of the observation count, and every reported
//     quantile is within relative error alpha = DefaultSketchAccuracy of the
//     exact quantile.
//
// Merge determinism is pinned the same way byteident pins events: the
// collapsed state is a pure function of the recorded multiset (integer
// bucket counts admit no floating-point reassociation), so merging
// sketches in any grouping or order yields bit-identical quantiles. In the
// exact regime the stored slice follows merge order, so order-sensitive
// last-ulp effects are confined to Mean/Stddev; quantiles sort first and are
// order-independent there too.
//
// The zero value is ready to use. NaN and ±Inf observations are dropped —
// they would otherwise poison the sort order or the bucket index — and N
// leaves them out.
type Sketch struct {
	capN int // exact-mode capacity; 0 = DefaultSketchCap (tests set it)

	// Exact regime.
	xs     []float64
	sorted bool

	// Collapsed regime.
	collapsed bool
	zero      int64         // |v| < SketchMinValue
	pos       map[int]int64 // v >= SketchMinValue, keyed by bucket index
	neg       map[int]int64 // v <= -SketchMinValue, keyed by index of -v

	count    int64
	min, max float64
}

func (s *Sketch) capacity() int {
	if s.capN == 0 {
		return DefaultSketchCap
	}
	return s.capN
}

// Add records one observation. Non-finite values are dropped.
func (s *Sketch) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	if !s.collapsed {
		s.xs = append(s.xs, v)
		s.sorted = false
		if len(s.xs) > s.capacity() {
			s.collapse()
		}
		return
	}
	s.bucketAdd(v, 1)
}

// collapse folds the exact observations into buckets and enters the
// flat-memory regime. The resulting bucket state depends only on the
// recorded multiset, never on insertion order.
func (s *Sketch) collapse() {
	s.collapsed = true
	if s.pos == nil {
		s.pos = make(map[int]int64)
		s.neg = make(map[int]int64)
	}
	for _, v := range s.xs {
		s.bucketAdd(v, 1)
	}
	s.xs = nil
	s.sorted = false
}

func (s *Sketch) bucketAdd(v float64, n int64) {
	switch {
	case v >= SketchMinValue:
		s.pos[s.index(v)] += n
	case v <= -SketchMinValue:
		s.neg[s.index(-v)] += n
	default:
		s.zero += n
	}
}

// index returns the bucket key of a positive magnitude: the smallest k with
// gamma^k >= v, clamped so the bucket's representative is a finite float64
// (magnitudes past SketchMaxValue share the top bucket).
func (s *Sketch) index(v float64) int {
	k := int(math.Ceil(math.Log(v) / logGamma))
	if k > maxIdx {
		k = maxIdx
	}
	return k
}

// rep returns the representative value of bucket k, the harmonic midpoint
// 2*gamma^k/(gamma+1): within relative error alpha of every value in the
// bucket's range (gamma^(k-1), gamma^k].
func (s *Sketch) rep(k int) float64 {
	return 2 * math.Exp(float64(k)*logGamma) / (gamma + 1)
}

// N returns the number of recorded observations.
func (s *Sketch) N() int64 { return s.count }

// Collapsed reports whether the sketch left the exact regime.
func (s *Sketch) Collapsed() bool { return s.collapsed }

// Max returns the largest observation (NaN when empty). Exact in both
// regimes.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.max
}

// Mean returns the arithmetic mean (NaN when empty). In the exact regime it
// sums the stored slice in its current order, as an exact sample does: in
// arrival order until a Percentile sorts the slice in place, ascending after.
// The two sums can differ in the last ulp, so a Mean read after a Percentile
// need not equal one read before it; callers keep the order they read in. In
// the collapsed regime it is computed from bucket representatives in
// ascending bucket order (deterministic, within alpha of the exact mean for
// same-signed data).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	if !s.collapsed {
		sum := 0.0
		for _, x := range s.xs {
			sum += x
		}
		return sum / float64(len(s.xs))
	}
	sum := 0.0
	for _, k := range s.sortedKeys(s.neg, true) {
		sum += -s.rep(k) * float64(s.neg[k])
	}
	for _, k := range s.sortedKeys(s.pos, false) {
		sum += s.rep(k) * float64(s.pos[k])
	}
	return sum / float64(s.count)
}

// sortedKeys returns the map's keys ascending (desc reverses) — the pinned
// iteration order every collapsed-regime reduction uses.
func (s *Sketch) sortedKeys(m map[int]int64, desc bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	if desc {
		for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	return keys
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics (NaN when empty). In the exact
// regime this is bit-identical to an exact sample's — including the rank
// arithmetic p/100*(n-1), which differs in the last ulp from q*(n-1) when
// p/100 doesn't round to q (99.9/100 != 0.999); collapsed, the order
// statistics are bucket representatives, so the result is within relative
// error DefaultSketchAccuracy of the exact interpolated percentile (for
// positive data), clamped to the exactly tracked minimum and Max. In the
// exact regime the first Percentile sorts the stored slice in place, which
// changes the order a later Mean sums in (see Mean).
func (s *Sketch) Percentile(p float64) float64 {
	if s.count == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s.atRank(0)
	}
	if p >= 100 {
		return s.atRank(float64(s.count - 1))
	}
	return s.atRank(p / 100 * float64(s.count-1))
}

// atRank interpolates at a fractional 0-based order-statistic rank in
// [0, n-1].
func (s *Sketch) atRank(rank float64) float64 {
	if !s.collapsed {
		if !s.sorted {
			sort.Float64s(s.xs)
			s.sorted = true
		}
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		if lo == hi {
			return s.xs[lo]
		}
		frac := rank - float64(lo)
		return s.xs[lo]*(1-frac) + s.xs[hi]*frac
	}
	if rank <= 0 {
		return s.min
	}
	if rank >= float64(s.count-1) {
		return s.max
	}
	lo := int64(math.Floor(rank))
	hi := int64(math.Ceil(rank))
	vlo, vhi := s.orderStats(lo, hi)
	v := vlo
	if hi != lo {
		frac := rank - float64(lo)
		v = vlo*(1-frac) + vhi*frac
	}
	// The representatives can poke past the true extremes by up to alpha;
	// the tracked min/max are exact, so clamp.
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v
}

// orderStats walks the buckets in value order — negative indexes descending,
// the zero bucket, positive ascending — and returns the representatives at
// 0-based order-statistic indexes lo and hi (lo <= hi).
func (s *Sketch) orderStats(lo, hi int64) (vlo, vhi float64) {
	found := 0
	var cum int64
	take := func(v float64, c int64) bool {
		cum += c
		if found == 0 && cum > lo {
			vlo = v
			found++
		}
		if found == 1 && cum > hi {
			vhi = v
			found++
		}
		return found == 2
	}
	for _, k := range s.sortedKeys(s.neg, true) {
		if take(-s.rep(k), s.neg[k]) {
			return
		}
	}
	if s.zero > 0 && take(0, s.zero) {
		return
	}
	for _, k := range s.sortedKeys(s.pos, false) {
		if take(s.rep(k), s.pos[k]) {
			return
		}
	}
	// Ranks past the end (can only happen via float rounding at q→1).
	if found == 0 {
		vlo = s.max
	}
	vhi = s.max
	return
}

// Merge folds o's observations into s without modifying o. Merging is
// associative, and on everything except exact-regime Mean/Stddev ulps it is
// commutative too: the combined sketch stays exact when the total count
// fits the cap, and otherwise collapses to the bucket state of the combined
// multiset — identical for every merge grouping and order.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil {
		return
	}
	if o.count == 0 {
		return
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.count == 0 || o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	if !s.collapsed && !o.collapsed && len(s.xs)+len(o.xs) <= s.capacity() {
		s.xs = append(s.xs, o.xs...)
		s.sorted = false
		return
	}
	if !s.collapsed {
		s.collapse()
	}
	if !o.collapsed {
		for _, v := range o.xs {
			s.bucketAdd(v, 1)
		}
		return
	}
	s.foldBuckets(o)
}

// foldBuckets adds a collapsed o's buckets into s: every sketch shares one
// bucket base, so the keys transfer directly.
func (s *Sketch) foldBuckets(o *Sketch) {
	s.zero += o.zero
	for k, c := range o.pos {
		s.pos[k] += c
	}
	for k, c := range o.neg {
		s.neg[k] += c
	}
}

// BinnedSketch groups observations by the paper's flow-size bins, exactly
// like the tests' BinnedSample but with flat memory past each bin's cap.
type BinnedSketch struct {
	Bins [NumBins]Sketch
}

// Add records an observation for a flow of the given size.
func (b *BinnedSketch) Add(size int64, x float64) { b.Bins[BinOf(size)].Add(x) }

// All returns a sketch merging every bin, in bin order.
func (b *BinnedSketch) All() *Sketch {
	out := &Sketch{}
	for i := range b.Bins {
		out.Merge(&b.Bins[i])
	}
	return out
}
