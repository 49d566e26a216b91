package core

import (
	"math/rand"
	"testing"

	"flowbender/internal/sim"
)

// propModel mirrors the observable pieces of the controller's state from
// the outside: what an auditor watching the OnAck/OnRTTEnd/OnTimeout
// stream can know without reading private fields.
type propModel struct {
	cfg Config // effective (defaults applied)

	// consecCongested counts consecutive congested non-empty epochs as
	// observed; it is >= the controller's internal counter (which also
	// resets on gap-suppressed firings), so it upper-bounds nothing but
	// lower-bounds are valid: a reroute with consecCongested < minimum
	// required N is a bug regardless of suppression history.
	consecCongested int
	// epochsSinceReroute counts non-empty epochs since the last observed
	// reroute of any kind (large at start: the first is unconstrained).
	epochsSinceReroute int
	fSmooth            float64
	sawReroute         bool
}

// minRequiredN is the smallest consecutive-congested requirement the
// controller may legally apply: N, or N-1 (clamped to 1) under DesyncN.
func (m *propModel) minRequiredN() int {
	n := m.cfg.N
	if m.cfg.DesyncN {
		n--
	}
	if n < 1 {
		n = 1
	}
	return n
}

// randomConfig draws a controller configuration across the whole knob
// space, including the defaults-selecting zero values.
func randomConfig(r *rand.Rand, trial int) Config {
	cfg := Config{
		T:           []float64{0, 0.01, 0.05, 0.2, 0.5}[r.Intn(5)],
		N:           r.Intn(4),                           // 0 = DefaultN
		NumValues:   []uint32{0, 1, 2, 8, 16}[r.Intn(5)], // 0 = DefaultNumValues
		MinEpochGap: r.Intn(8) - 1,                       // -1 = explicitly off
		DesyncN:     r.Intn(2) == 0,
		EWMAGamma:   []float64{0, 0, 0.5, 1}[r.Intn(4)],
	}
	if cfg.DesyncN || r.Intn(2) == 0 {
		cfg.RNG = sim.NewRNG(int64(trial))
	}
	return cfg
}

// TestFlowBenderInvariants drives random configurations with random mark
// sequences and checks the §3.4 state machine's contracts from the
// outside.
func TestFlowBenderInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		cfg := randomConfig(r, trial)
		fb := New(cfg)
		eff := cfg.withDefaults()
		m := &propModel{cfg: eff, epochsSinceReroute: 1 << 30}

		checkTag := func(when string) {
			if fb.PathTag() >= eff.NumValues {
				t.Fatalf("trial %d (%s): V=%d outside [0,%d)", trial, when, fb.PathTag(), eff.NumValues)
			}
		}
		checkTag("init")

		for step := 0; step < 400; step++ {
			if r.Intn(10) == 0 {
				// An RTO must always reroute, regardless of gaps or N.
				pre := fb.Stats()
				preTag := fb.PathTag()
				fb.OnTimeout()
				post := fb.Stats()
				if post.Reroutes != pre.Reroutes+1 || post.TimeoutReroutes != pre.TimeoutReroutes+1 {
					t.Fatalf("trial %d step %d: OnTimeout did not reroute: %+v -> %+v", trial, step, pre, post)
				}
				if eff.NumValues > 1 && fb.PathTag() == preTag {
					t.Fatalf("trial %d step %d: timeout reroute kept V=%d", trial, step, preTag)
				}
				m.epochsSinceReroute = 0
				m.consecCongested = 0
				m.sawReroute = true
				checkTag("timeout")
				continue
			}

			acks := r.Intn(5) // 0 = an epoch with no ACKs: no information
			marked := 0
			for j := 0; j < acks; j++ {
				mk := r.Intn(3) == 0
				if mk {
					marked++
				}
				fb.OnAck(mk)
			}
			preTag := fb.PathTag()
			pre := fb.Stats()
			rerouted := fb.OnRTTEnd()
			checkTag("epoch")

			if acks == 0 {
				if rerouted {
					t.Fatalf("trial %d step %d: rerouted on an empty epoch", trial, step)
				}
				if fb.Stats().Epochs != pre.Epochs {
					t.Fatalf("trial %d step %d: empty epoch counted", trial, step)
				}
				continue
			}

			f := float64(marked) / float64(acks)
			if g := eff.EWMAGamma; g > 0 {
				m.fSmooth = g*f + (1-g)*m.fSmooth
				f = m.fSmooth
			}
			congested := f > eff.T
			if congested {
				m.consecCongested++
			} else {
				m.consecCongested = 0
			}
			m.epochsSinceReroute++

			if rerouted {
				// Never before the minimum consecutive-congested count.
				if !congested {
					t.Fatalf("trial %d step %d: rerouted on an uncongested epoch (F=%v T=%v)", trial, step, f, eff.T)
				}
				if m.consecCongested < m.minRequiredN() {
					t.Fatalf("trial %d step %d: rerouted after %d consecutive congested epochs; requires >= %d",
						trial, step, m.consecCongested, m.minRequiredN())
				}
				// Never within MinEpochGap of a previous reroute.
				if gap := eff.MinEpochGap; gap > 0 && m.sawReroute && m.epochsSinceReroute < gap {
					t.Fatalf("trial %d step %d: congestion reroute %d epochs after the last one; gap is %d",
						trial, step, m.epochsSinceReroute, gap)
				}
				if fb.Stats().Reroutes != pre.Reroutes+1 {
					t.Fatalf("trial %d step %d: OnRTTEnd=true but Reroutes did not advance", trial, step)
				}
				if eff.NumValues > 1 && fb.PathTag() == preTag {
					t.Fatalf("trial %d step %d: reroute kept V=%d", trial, step, preTag)
				}
				m.epochsSinceReroute = 0
				m.consecCongested = 0
				m.sawReroute = true
			} else if fb.Stats().Reroutes != pre.Reroutes {
				t.Fatalf("trial %d step %d: OnRTTEnd=false but Reroutes advanced", trial, step)
			}
		}
	}
}

// TestFlowBenderDeterministicModel is a differential test: without DesyncN
// the controller's reroute decisions are a pure function of the mark
// stream, so an independent reimplementation of the §3.4.1 pseudocode
// (plus the §5.1 gap limiter) must agree with it exactly.
func TestFlowBenderDeterministicModel(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		cfg := randomConfig(r, trial)
		cfg.DesyncN = false
		fb := New(cfg)
		eff := cfg.withDefaults()

		var fSmooth float64
		congested := 0
		sinceReroute := 1 << 30
		for step := 0; step < 500; step++ {
			acks := r.Intn(5)
			marked := 0
			for j := 0; j < acks; j++ {
				mk := r.Intn(3) == 0
				if mk {
					marked++
				}
				fb.OnAck(mk)
			}
			got := fb.OnRTTEnd()

			want := false
			if acks > 0 {
				f := float64(marked) / float64(acks)
				if g := eff.EWMAGamma; g > 0 {
					fSmooth = g*f + (1-g)*fSmooth
					f = fSmooth
				}
				sinceReroute++
				if f > eff.T {
					congested++
					if congested >= eff.N {
						congested = 0
						if gap := eff.MinEpochGap; gap <= 0 || sinceReroute >= gap {
							want = true
							sinceReroute = 0
						}
					}
				} else {
					congested = 0
				}
			}
			if got != want {
				t.Fatalf("trial %d step %d (cfg %+v): OnRTTEnd=%v, model says %v", trial, step, eff, got, want)
			}
		}
	}
}
