package fluid

import "math"

// Session is one max-min player for the rate solver: the links it traverses
// and an upper rate cap in bits/sec (non-positive, NaN, or +Inf = uncapped).
type Session struct {
	Links []int32
	Cap   float64
}

// Waterfill computes the progressive-filling max-min fair allocation of the
// given link capacities among the sessions: the common water level rises
// until a link saturates or a session hits its cap; the sessions frozen
// there stop growing and the level keeps rising for the rest. The returned
// rates satisfy (up to float tolerance) the two defining properties the
// property tests pin:
//
//   - feasibility: on every link, the frozen rates sum to at most its
//     capacity;
//   - max-min fairness: every session is bottlenecked — it either runs at
//     its cap or traverses a saturated link on which no other session holds
//     a strictly larger rate.
//
// Capacities that are NaN or negative are treated as zero, +Inf as a very
// large finite capacity. Sessions with no links get their cap (or zero when
// uncapped: nothing constrains them, nothing carries them). The computation
// is deterministic: pure index-order arithmetic, no maps, no randomness.
//
// It is the from-scratch reference the incremental solver (IncSolver) is
// checked against; no shipped code calls it.
func Waterfill(capacity []float64, sessions []Session) []float64 {
	var w waterfiller
	w.begin(capacity)
	for _, s := range sessions {
		w.add(s.Links, s.Cap)
	}
	w.solve()
	out := make([]float64, len(sessions))
	copy(out, w.rate)
	return out
}

// waterfiller is the reusable progressive-filling solver. Link-indexed
// state is generation-stamped so a solve touches only the links its
// sessions traverse — O(sessions x path length) per solve regardless of
// fabric size.
type waterfiller struct {
	caps []float64 // capacities, set by begin (caller-owned)

	// Link-indexed scratch, lazily sized to len(caps).
	remCap []float64
	nAct   []int32
	seen   []uint32 // generation stamp: link registered this solve
	bneck  []uint64 // iteration stamp: link is a bottleneck this iteration
	gen    uint32
	iter   uint64

	touched []int32

	// Flattened session storage: session s occupies linkOf[off[s]:off[s+1]].
	linkOf []int32
	off    []int32
	cap    []float64
	rate   []float64
	frozen []bool
}

// begin starts a new solve against the given capacities. The slice is read,
// never written.
func (w *waterfiller) begin(capacity []float64) {
	w.caps = capacity
	if len(w.remCap) < len(capacity) {
		w.remCap = make([]float64, len(capacity))
		w.nAct = make([]int32, len(capacity))
		w.seen = make([]uint32, len(capacity))
		w.bneck = make([]uint64, len(capacity))
	}
	w.gen++
	w.touched = w.touched[:0]
	w.linkOf = w.linkOf[:0]
	w.off = append(w.off[:0], 0)
	w.cap = w.cap[:0]
	w.rate = w.rate[:0]
	w.frozen = w.frozen[:0]
}

// add registers one session. Links outside [0, len(capacity)) are ignored
// (defensive: the fuzz target feeds arbitrary indices through sanitation).
func (w *waterfiller) add(links []int32, cap float64) {
	for _, l := range links {
		if l < 0 || int(l) >= len(w.caps) {
			continue
		}
		w.linkOf = append(w.linkOf, l)
	}
	w.off = append(w.off, int32(len(w.linkOf)))
	if cap <= 0 || math.IsNaN(cap) || math.IsInf(cap, 1) {
		cap = hugeCap
	}
	w.cap = append(w.cap, cap)
	w.rate = append(w.rate, 0)
	w.frozen = append(w.frozen, false)
}

func (w *waterfiller) links(s int) []int32 { return w.linkOf[w.off[s]:w.off[s+1]] }

// solve runs the water level up until every session is frozen.
func (w *waterfiller) solve() {
	ns := len(w.cap)
	unfrozen := 0
	for s := 0; s < ns; s++ {
		ls := w.links(s)
		if len(ls) == 0 {
			// Nothing constrains a linkless session; give it its cap (or
			// zero when it asked for "unbounded" — there is no meaningful
			// answer, and zero keeps feasibility trivially true).
			w.frozen[s] = true
			if w.cap[s] >= hugeCap {
				w.rate[s] = 0
			} else {
				w.rate[s] = w.cap[s]
			}
			continue
		}
		unfrozen++
		for _, l := range ls {
			if w.seen[l] != w.gen {
				w.seen[l] = w.gen
				c := w.caps[l]
				if c < 0 || math.IsNaN(c) {
					c = 0
				} else if math.IsInf(c, 1) || c > hugeCap {
					c = hugeCap
				}
				w.remCap[l] = c
				w.nAct[l] = 0
				w.touched = append(w.touched, l)
			}
			w.nAct[l]++
		}
	}

	for unfrozen > 0 {
		w.iter++
		// The next freezing level: the tightest link's equal share, or the
		// smallest unfrozen cap, whichever is lower.
		level := math.Inf(1)
		for _, l := range w.touched {
			if w.nAct[l] > 0 {
				if v := w.remCap[l] / float64(w.nAct[l]); v < level {
					level = v
				}
			}
		}
		for s := 0; s < ns; s++ {
			if !w.frozen[s] && w.cap[s] < level {
				level = w.cap[s]
			}
		}
		if level < 0 {
			level = 0
		}
		eps := level*1e-9 + 1e-15
		for _, l := range w.touched {
			if w.nAct[l] > 0 && w.remCap[l]/float64(w.nAct[l]) <= level+eps {
				w.bneck[l] = w.iter
			}
		}
		froze := false
		for s := 0; s < ns; s++ {
			if w.frozen[s] {
				continue
			}
			freezeAt := -1.0
			if w.cap[s] <= level+eps {
				freezeAt = w.cap[s]
			} else {
				for _, l := range w.links(s) {
					if w.bneck[l] == w.iter {
						freezeAt = level
						break
					}
				}
			}
			if freezeAt < 0 {
				continue
			}
			w.frozen[s] = true
			w.rate[s] = freezeAt
			unfrozen--
			froze = true
			for _, l := range w.links(s) {
				w.remCap[l] -= freezeAt
				if w.remCap[l] < 0 {
					w.remCap[l] = 0
				}
				w.nAct[l]--
			}
		}
		if !froze {
			// Numerical backstop: freeze everything left at the level. The
			// level construction always selects at least one session in
			// exact arithmetic, so this only guards float pathologies.
			for s := 0; s < ns; s++ {
				if !w.frozen[s] {
					w.frozen[s] = true
					w.rate[s] = level
				}
			}
			return
		}
	}
}

// util returns link l's utilization under the last solve: allocated rate
// over capacity, in [0, 1]. Links no session touched are idle.
func (w *waterfiller) util(l int32) float64 {
	if l < 0 || int(l) >= len(w.caps) || w.seen[l] != w.gen {
		return 0
	}
	c := w.caps[l]
	if c <= 0 {
		return 1
	}
	u := 1 - w.remCap[l]/c
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}
