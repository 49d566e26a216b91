package core

import "flowbender/internal/sim"

// Sprayer implements the paper's §3.4.3 extension for unreliable transports:
// instead of rerouting only on congestion, a UDP-style flow changes its path
// tag every burst (every BurstBytes of payload), spraying bursts across
// paths at a controlled pace. Applications using UDP are typically robust to
// reordering, so the finer granularity trades ordering for balance.
type Sprayer struct {
	numValues uint32
	burst     int64
	rng       *sim.RNG

	tag  uint32
	sent int64
}

// NewSprayer returns a sprayer cycling through numValues tags every
// burstBytes of payload. rng may be nil for deterministic cycling.
func NewSprayer(numValues uint32, burstBytes int64, rng *sim.RNG) *Sprayer {
	if numValues == 0 {
		numValues = DefaultNumValues
	}
	if burstBytes <= 0 {
		burstBytes = 64 * 1024
	}
	s := &Sprayer{numValues: numValues, burst: burstBytes, rng: rng}
	if rng != nil {
		s.tag = uint32(rng.Intn(int(numValues)))
	}
	return s
}

// Tag returns the path tag for the next payload of n bytes and advances the
// burst accounting.
func (s *Sprayer) Tag(n int) uint32 {
	if s.sent >= s.burst {
		s.sent = 0
		if s.numValues > 1 {
			if s.rng != nil {
				s.tag = uint32(s.rng.IntnExcept(int(s.numValues), int(s.tag)))
			} else {
				s.tag = (s.tag + 1) % s.numValues
			}
		}
	}
	s.sent += int64(n)
	return s.tag
}
