package core

import (
	"testing"
	"testing/quick"

	"flowbender/internal/sim"
)

func feedEpoch(fb *FlowBender, marked, total int) bool {
	for i := 0; i < total; i++ {
		fb.OnAck(i < marked)
	}
	return fb.OnRTTEnd()
}

func TestDefaults(t *testing.T) {
	fb := New(Config{})
	if fb.cfg.T != DefaultT || fb.cfg.N != DefaultN || fb.cfg.NumValues != DefaultNumValues {
		t.Fatalf("defaults not applied: %+v", fb.cfg)
	}
	if fb.PathTag() != 0 {
		t.Fatalf("deterministic start tag should be 0, got %d", fb.PathTag())
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	cases := []Config{
		{T: -0.1},
		{T: 1.5},
		{N: -1},
		{EWMAGamma: 2},
		{DesyncN: true}, // requires RNG
		{MinEpochGap: -2},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%+v) did not panic", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestNoRerouteBelowThreshold(t *testing.T) {
	fb := New(Config{T: 0.05})
	for i := 0; i < 100; i++ {
		// Exactly at threshold: F = 5% is NOT > T.
		if feedEpoch(fb, 5, 100) {
			t.Fatalf("rerouted at F == T on epoch %d", i)
		}
	}
	if fb.Stats().Reroutes != 0 {
		t.Fatalf("reroutes = %d, want 0", fb.Stats().Reroutes)
	}
}

func TestRerouteAboveThreshold(t *testing.T) {
	fb := New(Config{T: 0.05})
	if !feedEpoch(fb, 6, 100) {
		t.Fatal("no reroute at F = 6% > T = 5% with N = 1")
	}
	if got := fb.Stats().Reroutes; got != 1 {
		t.Fatalf("reroutes = %d, want 1", got)
	}
}

func TestTagChangesOnReroute(t *testing.T) {
	fb := New(Config{})
	before := fb.PathTag()
	feedEpoch(fb, 100, 100)
	if fb.PathTag() == before {
		t.Fatalf("tag did not change on reroute (still %d)", before)
	}
}

func TestTagChangesWithRNGNeverSame(t *testing.T) {
	fb := New(Config{RNG: sim.NewRNG(11)})
	for i := 0; i < 200; i++ {
		before := fb.PathTag()
		feedEpoch(fb, 10, 10)
		if fb.PathTag() == before {
			t.Fatalf("iteration %d: reroute kept tag %d", i, before)
		}
	}
}

func TestConsecutiveNRequirement(t *testing.T) {
	fb := New(Config{N: 3})
	if feedEpoch(fb, 10, 10) || feedEpoch(fb, 10, 10) {
		t.Fatal("rerouted before N=3 consecutive congested epochs")
	}
	if !feedEpoch(fb, 10, 10) {
		t.Fatal("did not reroute on the 3rd consecutive congested epoch")
	}
}

func TestCleanEpochResetsConsecutiveCount(t *testing.T) {
	fb := New(Config{N: 2})
	feedEpoch(fb, 10, 10) // congested 1
	feedEpoch(fb, 0, 10)  // clean: reset
	if feedEpoch(fb, 10, 10) {
		t.Fatal("rerouted with only 1 consecutive congested epoch after reset")
	}
	if !feedEpoch(fb, 10, 10) {
		t.Fatal("did not reroute after 2 consecutive congested epochs")
	}
}

func TestEmptyEpochIgnored(t *testing.T) {
	fb := New(Config{N: 2})
	feedEpoch(fb, 10, 10)
	if fb.OnRTTEnd() {
		t.Fatal("empty epoch caused a reroute")
	}
	if got := fb.Stats().Epochs; got != 1 {
		t.Fatalf("empty epoch was counted: epochs = %d, want 1", got)
	}
	// An ack-less epoch carries no information, so it must not reset the
	// consecutive-congested count either.
	if !feedEpoch(fb, 10, 10) {
		t.Fatal("congested streak lost across an empty epoch")
	}
}

func TestTimeoutAlwaysReroutes(t *testing.T) {
	fb := New(Config{MinEpochGap: 100})
	before := fb.PathTag()
	fb.OnTimeout()
	if fb.PathTag() == before {
		t.Fatal("timeout did not change the tag")
	}
	st := fb.Stats()
	if st.TimeoutReroutes != 1 || st.Reroutes != 1 {
		t.Fatalf("stats = %+v, want one timeout reroute", st)
	}
}

func TestMinEpochGapSuppresses(t *testing.T) {
	fb := New(Config{MinEpochGap: 3})
	feedEpoch(fb, 10, 10) // reroute 1
	if feedEpoch(fb, 10, 10) || feedEpoch(fb, 10, 10) {
		t.Fatal("reroute within the gap window")
	}
	if !feedEpoch(fb, 10, 10) {
		t.Fatal("no reroute after the gap expired")
	}
	if got := fb.Stats().SuppressedByGap; got != 2 {
		t.Fatalf("SuppressedByGap = %d, want 2", got)
	}
}

func TestEWMASmoothing(t *testing.T) {
	// With gamma = 0.5 a single 8% spike smooths to 4% < T: no reroute.
	fb := New(Config{T: 0.05, EWMAGamma: 0.5})
	if feedEpoch(fb, 8, 100) {
		t.Fatal("smoothed F should not exceed T after one spike")
	}
	// A second consecutive spike pushes the smoothed F to 6% > T.
	if !feedEpoch(fb, 8, 100) {
		t.Fatal("smoothed F should exceed T after two spikes")
	}
}

func TestDesyncNStaysInRange(t *testing.T) {
	fb := New(Config{N: 2, DesyncN: true, RNG: sim.NewRNG(5)})
	for i := 0; i < 500; i++ {
		feedEpoch(fb, 10, 10)
		if n := fb.requiredN; n < 1 || n > 3 {
			t.Fatalf("requiredN = %d out of {1,2,3}", n)
		}
	}
}

// Property: the path tag always stays within [0, NumValues).
func TestTagRangeProperty(t *testing.T) {
	rng := sim.NewRNG(99)
	f := func(numValues uint8, marks []byte) bool {
		nv := uint32(numValues%16) + 1
		fb := New(Config{NumValues: nv, RNG: rng})
		for _, m := range marks {
			feedEpoch(fb, int(m%11), 10)
			fb.OnAck(true)
			if m%7 == 0 {
				fb.OnTimeout()
			}
			if fb.PathTag() >= nv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: reroutes never exceed congested epochs + timeouts, and congested
// epochs never exceed total epochs.
func TestCounterInvariants(t *testing.T) {
	rng := sim.NewRNG(7)
	f := func(marks []byte, timeouts uint8) bool {
		fb := New(Config{RNG: rng})
		for _, m := range marks {
			feedEpoch(fb, int(m)%11, 10)
		}
		for i := 0; i < int(timeouts%5); i++ {
			fb.OnTimeout()
		}
		st := fb.Stats()
		return st.Reroutes <= st.CongestedEpochs+st.TimeoutReroutes &&
			st.CongestedEpochs <= st.Epochs &&
			st.Reroutes >= st.TimeoutReroutes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: with N = 1 and no gap limiting, every congested epoch reroutes.
func TestEveryCongestedEpochReroutesWithN1(t *testing.T) {
	f := func(marks []byte) bool {
		fb := New(Config{})
		for _, m := range marks {
			mk := int(m) % 11
			rerouted := feedEpoch(fb, mk, 10)
			if (float64(mk)/10 > DefaultT) != rerouted {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsLastF(t *testing.T) {
	fb := New(Config{})
	feedEpoch(fb, 3, 10)
	if got := fb.Stats().LastF; got != 0.3 {
		t.Fatalf("LastF = %v, want 0.3", got)
	}
}
