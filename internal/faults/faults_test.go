package faults

import (
	"math"
	"strings"
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
)

func fatTreeFixture() (*sim.Engine, *topo.FatTree) {
	eng := sim.NewEngine()
	return eng, topo.NewFatTree(eng, topo.TinyScale())
}

func TestApplyCutAndRestore(t *testing.T) {
	eng, ft := fatTreeFixture()
	plan := Plan{Events: []Event{
		Cut(1*sim.Millisecond, "aggcore:0/0/0"),
		{At: 5 * sim.Millisecond, Kind: LinkUp, Link: "aggcore:0/0/0"},
	}}
	if err := Apply(eng, sim.NewRNG(1).Fork("faults"), ft, plan); err != nil {
		t.Fatal(err)
	}
	dx := ft.AggCoreLinks[0][0][0]
	eng.Run(2 * sim.Millisecond)
	if !dx.AtoB.Link.Down || !dx.BtoA.Link.Down || ft.DownLinks() != 1 {
		t.Fatalf("cable not cut at 1ms (%d cables down)", ft.DownLinks())
	}
	eng.Run(6 * sim.Millisecond)
	if dx.AtoB.Link.Down || dx.BtoA.Link.Down || ft.DownLinks() != 0 {
		t.Fatal("cable not restored at 5ms")
	}
}

func TestApplyHalfOpenCut(t *testing.T) {
	eng, ft := fatTreeFixture()
	plan := Plan{Events: []Event{HalfOpenCut(1*sim.Millisecond, "aggcore:0/0/0", AtoB)}}
	if err := Apply(eng, sim.NewRNG(1).Fork("faults"), ft, plan); err != nil {
		t.Fatal(err)
	}
	eng.Run(2 * sim.Millisecond)
	dx := ft.AggCoreLinks[0][0][0]
	if ft.DownLinks() != 0 {
		t.Fatal("half-open cut counted as a failed cable")
	}
	if !dx.AtoB.Link.Down || dx.BtoA.Link.Down {
		t.Fatal("wrong direction cut")
	}
}

func TestFlapTogglesAndStops(t *testing.T) {
	eng, ft := fatTreeFixture()
	// Strictly periodic (no jitter): down at 1ms, up at 3ms, down at 5ms,
	// ..., until 10ms.
	plan := Plan{Events: []Event{
		FlapLink(1*sim.Millisecond, "aggcore:0/0/0", 2*sim.Millisecond, 2*sim.Millisecond, 0, 10*sim.Millisecond),
	}}
	if err := Apply(eng, sim.NewRNG(1).Fork("faults"), ft, plan); err != nil {
		t.Fatal(err)
	}
	dx := ft.AggCoreLinks[0][0][0]
	eng.Run(2 * sim.Millisecond)
	if !dx.AtoB.Link.Down || !dx.BtoA.Link.Down {
		t.Fatal("not down after first flap transition")
	}
	eng.Run(4 * sim.Millisecond)
	if dx.AtoB.Link.Down || dx.BtoA.Link.Down {
		t.Fatal("not up mid-flap")
	}
	eng.Run(20 * sim.Millisecond)
	if dx.AtoB.Link.Down || dx.BtoA.Link.Down {
		t.Fatal("flap did not leave the cable up after Until")
	}
	// Transitions: down/up at 1,3,5,7,9 ms, plus the final restore when the
	// 11 ms tick sees Until has passed -> 6 state changes per direction.
	if got := dx.AtoB.Link.Transitions; got != 6 {
		t.Fatalf("A->B transitions = %d, want 6", got)
	}
}

func TestFlapJitterDeterministic(t *testing.T) {
	run := func() int64 {
		eng, ft := fatTreeFixture()
		plan := Plan{Events: []Event{
			FlapLink(1*sim.Millisecond, "aggcore:0/0/0", 1*sim.Millisecond, 1*sim.Millisecond, 0.3, 50*sim.Millisecond),
		}}
		if err := Apply(eng, sim.NewRNG(7).Fork("faults"), ft, plan); err != nil {
			t.Fatal(err)
		}
		eng.Run(60 * sim.Millisecond)
		return ft.AggCoreLinks[0][0][0].AtoB.Link.Transitions
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("jittered flap not replayable: %d vs %d transitions", a, b)
	}
	if a < 10 {
		t.Fatalf("implausibly few transitions: %d", a)
	}
}

func TestGrayDropLossRate(t *testing.T) {
	eng, ft := fatTreeFixture()
	plan := Plan{Events: []Event{Gray(0, "aggcore:0/0/0", 0.5)}}
	if err := Apply(eng, sim.NewRNG(3).Fork("faults"), ft, plan); err != nil {
		t.Fatal(err)
	}
	dx := ft.AggCoreLinks[0][0][0]
	eng.RunUntilIdle() // apply the event at t=0
	const n = 2000
	for i := 0; i < n; i++ {
		dx.AtoB.Enqueue(&netsim.Packet{Dst: 0, Size: 100})
		eng.RunUntilIdle()
	}
	got := dx.AtoB.Link.DroppedGray
	if got < n/3 || got > 2*n/3 {
		t.Fatalf("gray drops = %d of %d, want ~%d", got, n, n/2)
	}
	// Clearing: DropProb 0 removes the hook (scheduled after Now, since the
	// engine has already advanced past t=0).
	plan2 := Plan{Events: []Event{Gray(eng.Now()+1, "aggcore:0/0/0", 0)}}
	if err := Apply(eng, sim.NewRNG(3).Fork("faults2"), ft, plan2); err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle()
	if dx.AtoB.Link.DropFn != nil {
		t.Fatal("gray state not cleared")
	}
}

func TestDegradeAndRestoreRate(t *testing.T) {
	eng, ft := fatTreeFixture()
	plan := Plan{Events: []Event{
		DegradeLink(1*sim.Millisecond, "aggcore:0/0/0", 0.25),
		DegradeLink(5*sim.Millisecond, "aggcore:0/0/0", 1),
	}}
	if err := Apply(eng, sim.NewRNG(1).Fork("faults"), ft, plan); err != nil {
		t.Fatal(err)
	}
	dx := ft.AggCoreLinks[0][0][0]
	orig := dx.AtoB.RateBps
	eng.Run(2 * sim.Millisecond)
	if got := dx.AtoB.RateBps; got != orig/4 {
		t.Fatalf("degraded rate = %d, want %d", got, orig/4)
	}
	if got := dx.BtoA.RateBps; got != orig/4 {
		t.Fatalf("reverse direction not degraded: %d", got)
	}
	eng.Run(6 * sim.Millisecond)
	if got := dx.AtoB.RateBps; got != orig {
		t.Fatalf("restored rate = %d, want %d", got, orig)
	}
}

func TestApplyRejectsBadTargets(t *testing.T) {
	eng, ft := fatTreeFixture()
	cases := []Plan{
		{Events: []Event{Cut(0, "aggcore:9/9/9")}},
		{Events: []Event{Cut(0, "toragg:0/0")}},
		{Events: []Event{Cut(0, "host:x")}},
		{Events: []Event{Cut(0, "nonsense:0")}},
		{Events: []Event{Cut(0, "missing-colon")}},
		{Events: []Event{Gray(0, "aggcore:0/0/0", 1.5)}},
		{Events: []Event{DegradeLink(0, "aggcore:0/0/0", 0)}},
		{Events: []Event{{At: 0, Kind: Flap, Link: "aggcore:0/0/0"}}},
		{Events: []Event{{At: -1, Kind: LinkDown, Link: "aggcore:0/0/0"}}},
	}
	for i, plan := range cases {
		if err := Apply(eng, sim.NewRNG(1).Fork("faults"), ft, plan); err == nil {
			t.Errorf("case %d: bad plan accepted", i)
		}
	}
}

// Every float parameter's range is closed against NaN, which fails every
// comparison: a NaN degrade would otherwise run the link at 1 b/s.
func TestValidateFloatRanges(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	flap := func(j float64) Event { return FlapLink(0, "aggcore:0/0/0", 1, 1, j, 0) }
	cases := []struct {
		ev   Event
		want string // "" for valid
	}{
		{flap(0), ""},
		{flap(0.5), ""},
		{flap(1), "Jitter 1 out of [0, 1)"},
		{flap(-0.1), "Jitter -0.1 out of [0, 1)"},
		{flap(nan), "Jitter NaN out of [0, 1)"},
		{Gray(0, "aggcore:0/0/0", 0), ""},
		{Gray(0, "aggcore:0/0/0", 1), ""},
		{Gray(0, "aggcore:0/0/0", 1.5), "DropProb 1.5 out of [0, 1]"},
		{Gray(0, "aggcore:0/0/0", nan), "DropProb NaN out of [0, 1]"},
		{Gray(0, "aggcore:0/0/0", -inf), "DropProb -Inf out of [0, 1]"},
		{DegradeLink(0, "aggcore:0/0/0", 1), ""},
		{DegradeLink(0, "aggcore:0/0/0", 0.25), ""},
		{DegradeLink(0, "aggcore:0/0/0", 0), "RateFraction 0 out of (0, 1]"},
		{DegradeLink(0, "aggcore:0/0/0", nan), "RateFraction NaN out of (0, 1]"},
		{DegradeLink(0, "aggcore:0/0/0", inf), "RateFraction +Inf out of (0, 1]"},
	}
	for i, tc := range cases {
		err := tc.ev.validate(i)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("case %d (%s): valid event refused: %v", i, tc.ev.Kind, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("case %d (%s): got %v, want an error with %q", i, tc.ev.Kind, err, tc.want)
		}
	}
}

// validate refuses every value of a field it reads that the scheduler has no
// meaning for: a direction outside Both/AtoB/BtoA would cut both directions,
// a negative Until would flap forever, and an unknown kind would schedule
// nothing.
func TestValidateChecksEveryField(t *testing.T) {
	cut := Cut(0, "aggcore:0/0/0")
	badDir := cut
	badDir.Dir = BtoA + 1
	badKind := cut
	badKind.Kind = Degrade + 1
	cases := []struct {
		ev   Event
		want string // "" for valid
	}{
		{cut, ""},
		{HalfOpenCut(0, "aggcore:0/0/0", BtoA), ""},
		{badDir, "unknown direction 3"},
		{badKind, "unknown kind kind(5)"},
		{FlapLink(0, "aggcore:0/0/0", 1, 1, 0, 0), ""},
		{FlapLink(0, "aggcore:0/0/0", 1, 1, 0, -1), "negative Until -1"},
	}
	for i, tc := range cases {
		err := tc.ev.validate(i)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("case %d (%s): valid event refused: %v", i, tc.ev.Kind, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("case %d (%s): got %v, want an error with %q", i, tc.ev.Kind, err, tc.want)
		}
	}
}
