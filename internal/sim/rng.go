package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random-number source with named sub-streams.
//
// Each component of a simulation (workload generator, RPS selector, TCP
// jitter, ...) forks its own stream so that adding randomness consumption in
// one component does not perturb the draws seen by another. This keeps
// cross-scheme comparisons on the same workload sample.
type RNG struct {
	*rand.Rand
	src lazySource
}

// lazySource is a stream's rand.Source64: it seeds math/rand's generator
// (4.9 KB) on the first draw, so a stream that is forked and never drawn from
// costs a few words. What a stream draws depends on its seed alone, so when
// the generator is built cannot change it.
type lazySource struct {
	seed int64
	gen  rand.Source64
}

func (l *lazySource) get() rand.Source64 {
	if l.gen == nil {
		l.gen = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.gen
}

// Int63 is Uint64 without its top bit, which is how math/rand's own source
// derives it: every draw goes through the one method.
func (l *lazySource) Int63() int64   { return int64(l.Uint64() &^ (1 << 63)) }
func (l *lazySource) Uint64() uint64 { return l.get().Uint64() }

// Seed sets the seed the generator is built from at the next draw.
func (l *lazySource) Seed(seed int64) { l.seed, l.gen = seed, nil }

// NewRNG returns a root stream for the given seed.
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	r.src.Seed(seed)
	r.Rand = rand.New(&r.src)
	return r
}

// Fork derives an independent child stream identified by name. Forking the
// same (seed, name) pair always yields the same stream.
func (r *RNG) Fork(name string) *RNG {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(r.src.seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(name))
	child := int64(h.Sum64())
	return NewRNG(child)
}

// Exp draws an exponentially distributed duration with the given mean.
func (r *RNG) Exp(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	d := Time(r.ExpFloat64() * float64(mean))
	if d < 0 {
		return 0
	}
	return d
}

// IntnExcept draws uniformly from [0, n) excluding `except`. n must be >= 2
// when except is in range.
func (r *RNG) IntnExcept(n, except int) int {
	if except < 0 || except >= n {
		return r.Intn(n)
	}
	v := r.Intn(n - 1)
	if v >= except {
		v++
	}
	return v
}
