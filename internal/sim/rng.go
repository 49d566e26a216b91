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
	seed int64
	*rand.Rand
}

// NewRNG returns a root stream for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed, Rand: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child stream identified by name. Forking the
// same (seed, name) pair always yields the same stream.
func (r *RNG) Fork(name string) *RNG {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(r.seed) >> (8 * i))
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
