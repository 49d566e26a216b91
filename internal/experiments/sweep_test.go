package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"flowbender/internal/runpool"
)

// TestFluidTwinsIdentical is the proof behind sweep's sharing: every point
// of the all-to-all and Table 1 sweeps is simulated on its own, on the fluid
// engine, and
//
//	(a) points sweep would group produce identical outcomes,
//	(b) AllToAll and Table1 — which simulate one point per group — print
//	    byte for byte the tables assembled from the solo runs, at any
//	    parallelism,
//	(c) a scheme with a fluid model of its own (FlowBender's controller,
//	    RepFlow's replicas, DiffFlow's size split) is never grouped.
//
// The grouping is read off fluidConfig, so the day a scheme gets its own
// fluid model it leaves its group there and this test follows.
func TestFluidTwinsIdentical(t *testing.T) {
	for _, scale := range []ScaleLevel{ScaleTiny, ScaleSmall} {
		t.Run(scale.String(), func(t *testing.T) {
			o := Options{Seed: 5, Scale: scale, Engine: EngineFluid, FlowCount: 300, Repeats: 2}

			a2a := o.a2aPoints()
			a2aOuts := make([]*runOutcome, len(a2a))
			for i, pt := range a2a {
				a2aOuts[i] = o.runA2APoint(pt)
			}
			lead := fluidLeaders(o, a2a)
			checkTwins(t, "alltoall", lead, func(i int) Scheme { return a2a[i].scheme }, func(i, j int) bool {
				x, y := a2aOuts[i], a2aOuts[j]
				return reflect.DeepEqual(&x.FCT, &y.FCT) && x.Reroutes == y.Reroutes && x.Incomplete == y.Incomplete
			})
			if want := len(DefaultLoads) * 5; countLeaders(lead) != want {
				t.Errorf("alltoall: %d of %d points would be simulated, want %d (ECMP, FlowBender, RPS, RepFlow, DiffFlow per load)",
					countLeaders(lead), len(lead), want)
			}

			t1 := o.t1Points()
			t1Outs := make([]t1Out, len(t1))
			for i, pt := range t1 {
				t1Outs[i] = o.runT1Point(pt)
			}
			t1Lead := fluidLeaders(o, t1)
			checkTwins(t, "table1", t1Lead, func(i int) Scheme { return t1[i].scheme },
				func(i, j int) bool { return t1Outs[i] == t1Outs[j] })

			var want bytes.Buffer
			o.assembleAllToAll(a2aOuts).Print(&want)
			o.assembleTable1(t1Outs).Print(&want)
			for _, par := range []int{1, 4} {
				oo := o
				oo.Parallelism = par
				var got bytes.Buffer
				AllToAll(oo).Print(&got)
				Table1(oo).Print(&got)
				if got.String() != want.String() {
					t.Errorf("-parallel %d: shared sweep prints\n%s\nsolo runs assemble to\n%s", par, got.String(), want.String())
				}
			}
		})
	}

	// The packet engine shares nothing.
	o := Options{Seed: 5, Scale: ScaleTiny}
	var every []schemePoint
	for _, s := range AllSchemes {
		every = append(every, schemePoint{s})
	}
	for i, l := range fluidLeaders(o, every) {
		if l != i {
			t.Errorf("packet engine: %s grouped with %s", AllSchemes[i], AllSchemes[l])
		}
	}
}

// schemePoint is a sweep point with no coordinate but its scheme.
type schemePoint struct{ s Scheme }

func (p schemePoint) model() (Scheme, any) { return p.s, nil }

// checkTwins asserts (a) and (c) over one sweep's grouping.
func checkTwins(t *testing.T, exp string, lead []int, scheme func(i int) Scheme, same func(i, j int) bool) {
	t.Helper()
	own := map[Scheme]bool{FlowBender: true, RepFlow: true, DiffFlow: true}
	for i, l := range lead {
		if l == i {
			continue
		}
		if own[scheme(i)] || own[scheme(l)] {
			t.Errorf("%s: %s is grouped with %s", exp, scheme(i), scheme(l))
		}
		if !same(i, l) {
			t.Errorf("%s: point %d (%s) is grouped with point %d (%s) but its solo outcome differs", exp, i, scheme(i), l, scheme(l))
		}
	}
}

func countLeaders(lead []int) int {
	n := 0
	for i, l := range lead {
		if l == i {
			n++
		}
	}
	return n
}

// TestSharedPointsBooks pins the bookkeeping around sharing: PerfStats counts
// the simulated points only, -v says what was shared, and the arena free list
// stays within the pool's parallelism.
func TestSharedPointsBooks(t *testing.T) {
	const flows = 120
	var log bytes.Buffer
	perf := &PerfStats{}
	o := Options{Seed: 2, Scale: ScaleTiny, Engine: EngineFluid, FlowCount: flows, Parallelism: 2, Perf: perf, Log: &log}
	o.sharedPool = runpool.New(o.Parallelism)
	r := AllToAll(o)
	if r.Incomplete != 0 {
		t.Fatalf("%d flows incomplete", r.Incomplete)
	}
	if got, want := perf.FlowsCompleted.Load(), int64(15*flows); got != want {
		t.Errorf("FlowsCompleted = %d, want %d: 15 simulated points of %d flows, nothing for the 9 shared", got, want, flows)
	}
	line := "alltoall: 15 of 24 points simulated; Flowlet, FlowDyn share ECMP's fluid model, DeTail shares RPS's\n"
	if !strings.Contains(log.String(), line) {
		t.Errorf("-v log lacks %q:\n%s", line, log.String())
	}
	if held := o.sharedPool.ScratchHeld(); held < 1 || held > o.Parallelism {
		t.Errorf("pool holds %d arenas after the sweep, want 1..%d", held, o.Parallelism)
	}
}

// TestSharedPointFailureNamesAll: when a simulated point fails, the report
// names every scheme it stood for and still identifies the point by its own
// label (the checkpoint key the wedged flag is filed under).
func TestSharedPointFailureNamesAll(t *testing.T) {
	o := Options{Seed: 1, Scale: ScaleTiny, Engine: EngineFluid, Parallelism: 2}
	type pt = schemePoint
	points := []pt{{ECMP}, {FlowBender}, {RPS}, {DeTail}, {Flowlet}, {FlowDyn}}
	name := func(p pt) string { return "boom/" + p.s.String() }

	outs := sweep(o, "boom", points, name, func(_ Options, p pt) Scheme { return p.s })
	if got := fmt.Sprint(outs); got != "[ECMP FlowBender RPS RPS ECMP ECMP]" {
		t.Fatalf("outcomes handed out: %s", got)
	}

	failure := func(fn func(Options, pt) int) (r any) {
		defer func() { r = recover() }()
		sweep(o, "boom", points, name, fn)
		return nil
	}
	r := failure(func(_ Options, p pt) int {
		if p.s == ECMP {
			panic("exploded")
		}
		return 0
	})
	err, ok := r.(error)
	if !ok {
		t.Fatalf("recovered %v (%T), want an error", r, r)
	}
	if msg := err.Error(); !strings.Contains(msg, "point boom/ECMP panicked: exploded") ||
		!strings.Contains(msg, "also stood for Flowlet, FlowDyn") {
		t.Errorf("failure report %q does not name the point and every scheme it stood for", msg)
	}

	o.Watchdog = 20 * time.Millisecond
	r = failure(func(_ Options, p pt) int {
		if p.s == RPS {
			time.Sleep(200 * time.Millisecond)
		}
		return 0
	})
	err, _ = r.(error)
	var we *runpool.WatchdogError
	if err == nil || !errors.As(err, &we) || we.Point != "boom/RPS" || !strings.Contains(err.Error(), "also stood for DeTail") {
		t.Errorf("watchdog report %v: want point boom/RPS, also standing for DeTail", r)
	}

	// A point that stood for nothing fails as it always did.
	r = failure(func(_ Options, p pt) int {
		if p.s == FlowBender {
			panic("exploded")
		}
		return 0
	})
	if _, ok := r.(*runpool.PanicError); !ok {
		t.Errorf("unshared point's failure arrived as %T, want the bare *runpool.PanicError", r)
	}
}
