package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flowbender/internal/runpool"
)

// TestFluidTwinsIdentical is the proof behind runPoints' sharing: every run
// of the all-to-all and Table 1 sweeps is simulated on its own, on the fluid
// engine, and
//
//	(a) runs runPoints would group produce identical outcomes,
//	(b) AllToAll and Table1 — which simulate one run per group — print
//	    byte for byte the tables assembled from the solo runs, at any
//	    parallelism,
//	(c) a scheme with a fluid model of its own (FlowBender's controller,
//	    RepFlow's replicas, DiffFlow's size split) is never grouped.
//
// The grouping is read off fluidConfig, so the day a scheme gets its own
// fluid model it leaves its group there and this test follows. A solo run
// goes through runPoints too, as a point that is no sweepPoint.
func TestFluidTwinsIdentical(t *testing.T) {
	for _, scale := range []ScaleLevel{ScaleTiny, ScaleSmall} {
		t.Run(scale.String(), func(t *testing.T) {
			o := Options{Seed: 5, Scale: scale, Engine: EngineFluid, FlowCount: 300, Repeats: 2, Parallelism: 2}

			var a2a []a2aPoint
			for _, load := range DefaultLoads {
				for _, s := range AllSchemes {
					a2a = append(a2a, a2aPoint{load: load, scheme: s})
				}
			}
			a2aOuts := soloRuns(o, o.seeds(), a2a, func(o Options, pt a2aPoint) *runOutcome {
				return o.runAllToAll(allToAllSpec{scheme: pt.scheme, load: pt.load})
			})
			lead := fluidLeaders(o, pointTasks(o, "alltoall", o.seeds(), a2a, a2aPoint.String))
			a2aScheme := func(i int) Scheme { return a2a[i/o.seeds()].scheme }
			checkTwins(t, "alltoall", lead, a2aScheme, func(i, j int) bool {
				x, y := a2aOuts[i], a2aOuts[j]
				return reflect.DeepEqual(&x.FCT, &y.FCT) && x.Reroutes == y.Reroutes && x.Incomplete == y.Incomplete
			})
			if want := len(DefaultLoads) * 5; countLeaders(lead) != want {
				t.Errorf("alltoall: %d of %d points would be simulated, want %d (ECMP, FlowBender, RPS, RepFlow, DiffFlow per load)",
					countLeaders(lead), len(lead), want)
			}

			var t1 []t1Point
			for _, k := range o.t1Counts() {
				for _, s := range AllSchemes {
					t1 = append(t1, t1Point{k: k, scheme: s})
				}
			}
			t1Outs := soloRuns(o, o.repeats(), t1, func(o Options, pt t1Point) t1Out {
				m, x := o.runValidation(pt.scheme, nil, pt.k, o.t1FlowBytes())
				return t1Out{meanMs: m, maxMs: x}
			})
			t1Lead := fluidLeaders(o, pointTasks(o, "table1", o.repeats(), t1, t1Point.String))
			checkTwins(t, "table1", t1Lead, func(i int) Scheme { return t1[i/o.repeats()].scheme },
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
	for i, l := range fluidLeaders(o, pointTasks(o, "every", 1, every, schemePoint.String)) {
		if l != i {
			t.Errorf("packet engine: %s grouped with %s", AllSchemes[i], AllSchemes[l])
		}
	}
}

// soloRuns runs every point reps times through runPoints with nothing
// shared: each point is wrapped in a type that is no sweepPoint.
func soloRuns[P, Out any](o Options, reps int, points []P, run func(Options, P) Out) []Out {
	type solo struct{ pt P }
	solos := make([]solo, len(points))
	for i, pt := range points {
		solos[i] = solo{pt}
	}
	return must(runPoints(o, "solo", reps, solos, func(s solo) string { return fmt.Sprint(s.pt) },
		func(o Options, s solo) Out { return run(o, s.pt) }))
}

// schemePoint is a sweep point with no coordinate but its scheme.
type schemePoint struct{ s Scheme }

func (p schemePoint) model() (Scheme, any) { return p.s, nil }
func (p schemePoint) String() string       { return p.s.String() }

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

	outs := must(runPoints(o, "boom", 1, points, pt.String, func(_ Options, p pt) Scheme { return p.s }))
	if got := fmt.Sprint(outs); got != "[ECMP FlowBender RPS RPS ECMP ECMP]" {
		t.Fatalf("outcomes handed out: %s", got)
	}

	failure := func(fn func(Options, pt) int) (r any) {
		defer func() { r = recover() }()
		must(runPoints(o, "boom", 1, points, pt.String, fn))
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
	if msg := err.Error(); !strings.Contains(msg, "point boom/ECMP/seed=1 panicked: exploded") ||
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
	if err == nil || !errors.As(err, &we) || we.Point != "boom/RPS/seed=1" || !strings.Contains(err.Error(), "also stood for DeTail") {
		t.Errorf("watchdog report %v: want point boom/RPS/seed=1, also standing for DeTail", r)
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

	// Per-run results keep each failure in its own slots: the fault matrix
	// reads them so, and every sharing run names what it stood for.
	o.Watchdog = 0
	res := runPoints(o, "boom", 1, points, pt.String, func(_ Options, p pt) int {
		if p.s == RPS {
			panic("exploded")
		}
		return 0
	})
	for i, r := range res {
		failed := points[i].s == RPS || points[i].s == DeTail
		var se *sharedPointError
		if failed != (r.Err != nil) || failed && (!errors.As(r.Err, &se) || fmt.Sprint(se.also) != "[DeTail]") {
			t.Errorf("%s: result %+v", points[i].s, r)
		}
	}
}

// TestMustWaitsThenRaisesFirstLabeledFailure: an experiment that fails as a
// whole must not unwind while a sibling run is still going — the sibling
// writes the caller's checkpoint and holds its arenas — and it raises the
// first failure in point order, not the first in time, as the labelled
// *runpool.PanicError itself so the FAILED report identifies the run.
func TestMustWaitsThenRaisesFirstLabeledFailure(t *testing.T) {
	lastFailed, firstFailing := make(chan struct{}), make(chan struct{})
	var siblingDone atomic.Bool
	defer func() {
		r := recover()
		if pe, ok := r.(*runpool.PanicError); !ok || pe.Point != "boom/0/seed=3" {
			t.Errorf("recovered %v (%T), want the labelled failure of boom/0/seed=3", r, r)
		}
		if !siblingDone.Load() {
			t.Error("unwound while point 1 was still running")
		}
	}()
	o := Options{Seed: 3, Parallelism: 3}
	must(runPoints(o, "boom", 1, []int{0, 1, 2}, strconv.Itoa, func(_ Options, i int) int {
		switch i {
		case 2: // fails first in time
			defer close(lastFailed)
			panic("point 2 fails")
		case 0: // fails second, first in point order
			<-lastFailed
			defer close(firstFailing)
			panic("point 0 fails")
		default: // still in flight after both failures have resolved
			<-firstFailing
			time.Sleep(50 * time.Millisecond)
			siblingDone.Store(true)
		}
		return i
	}))
	t.Error("did not panic")
}
