package runpool

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestNamedErrorsCarryPoint pins the failure-identification contract: a
// panic or watchdog timeout crossing the pool reports the submitted point
// label, so a FAILED log line alone reproduces the point.
func TestNamedErrorsCarryPoint(t *testing.T) {
	p := New(2)
	_, err := SubmitNamed(p, "alltoall/load=0.4/ECMP/seed=7", func() int { panic("boom") }).Result()
	pe, ok := err.(*PanicError)
	if !ok || pe.Point != "alltoall/load=0.4/ECMP/seed=7" {
		t.Fatalf("err = %v (%T)", err, err)
	}
	if !strings.Contains(pe.Error(), "point alltoall/load=0.4/ECMP/seed=7 panicked: boom") {
		t.Fatalf("Error() = %q", pe.Error())
	}

	p.SetWatchdog(20 * time.Millisecond)
	release := make(chan struct{})
	defer close(release)
	_, err = SubmitNamed(p, "faults/cut/DeTail/seed=3", func() int { <-release; return 1 }).Result()
	we, ok := err.(*WatchdogError)
	if !ok || we.Point != "faults/cut/DeTail/seed=3" {
		t.Fatalf("err = %v (%T)", err, err)
	}
	if !strings.Contains(we.Error(), "point faults/cut/DeTail/seed=3 exceeded") {
		t.Fatalf("Error() = %q", we.Error())
	}
}

// TestMapNamedRetriesWatchdogOnce: a point whose first attempt trips the
// watchdog is resubmitted exactly once with the same closure; a fast second
// attempt turns the sweep healthy.
func TestMapNamedRetriesWatchdogOnce(t *testing.T) {
	p := New(4)
	p.SetWatchdog(30 * time.Millisecond)
	var calls atomic.Int32
	release := make(chan struct{})
	defer close(release)
	out := MapNamed(p, []int{1, 2, 3},
		func(i int) string { return fmt.Sprintf("pt%d", i) },
		func(i int) int {
			if i == 2 && calls.Add(1) == 1 {
				<-release // first attempt of point 2 wedges
			}
			return i * 10
		})
	if out[0] != 10 || out[1] != 20 || out[2] != 30 {
		t.Fatalf("out = %v", out)
	}
	if calls.Load() != 2 {
		t.Fatalf("point 2 ran %d times, want 2 (original + one retry)", calls.Load())
	}
}

// TestMapResultsNamedReportsAfterSecondTimeout: the retry is bounded at
// one; a point that times out twice reports a WatchdogError flagged
// Retried, and the rest of the sweep still completes.
func TestMapResultsNamedReportsAfterSecondTimeout(t *testing.T) {
	p := New(4)
	p.SetWatchdog(20 * time.Millisecond)
	var calls atomic.Int32
	release := make(chan struct{})
	defer close(release)
	out := MapResultsNamed(p, []int{0, 1},
		func(i int) string { return fmt.Sprintf("pt%d", i) },
		func(i int) int {
			if i == 1 {
				calls.Add(1)
				<-release // wedged on every attempt
			}
			return i + 100
		})
	if out[0].Err != nil || out[0].Val != 100 {
		t.Fatalf("healthy point: %+v", out[0])
	}
	we, ok := out[1].Err.(*WatchdogError)
	if !ok || !we.Retried || we.Point != "pt1" {
		t.Fatalf("wedged point err = %v (%T)", out[1].Err, out[1].Err)
	}
	if !strings.Contains(we.Error(), "twice") {
		t.Fatalf("Error() = %q", we.Error())
	}
	if calls.Load() != 2 {
		t.Fatalf("wedged point attempted %d times, want exactly 2", calls.Load())
	}
}

// TestMapNamedPanicsWithLabeledError: Map-style consumers fail the whole
// experiment on a lost point, and the panic value itself must identify it.
func TestMapNamedPanicsWithLabeledError(t *testing.T) {
	p := New(2)
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok || pe.Point != "pt1" {
			t.Fatalf("recovered %v (%T), want labeled *PanicError", r, r)
		}
	}()
	MapNamed(p, []int{0, 1},
		func(i int) string { return fmt.Sprintf("pt%d", i) },
		func(i int) int {
			if i == 1 {
				panic("unlucky point")
			}
			return i
		})
	t.Fatal("MapNamed did not panic")
}

// TestMapNamedWaitsForInFlightOnFailure: a failed point must not unwind the
// caller while a sibling is still running — the sibling writes the caller's
// checkpoint and holds its arenas — and with two failures it is the first in
// item order that is raised, not the first in time. MapN is held to the same.
func TestMapNamedWaitsForInFlightOnFailure(t *testing.T) {
	name := func(i int) string { return fmt.Sprintf("pt%d", i) }
	for _, tc := range []struct {
		api  string
		call func(p *Pool, fn func(int) int)
		want func(r any) bool
	}{
		{"MapNamed", func(p *Pool, fn func(int) int) { MapNamed(p, []int{0, 1, 2}, name, fn) },
			func(r any) bool { pe, ok := r.(*PanicError); return ok && pe.Point == "pt0" }},
		{"MapN", func(p *Pool, fn func(int) int) { MapN(p, 3, fn) },
			func(r any) bool { return r == "pt0 fails" }},
	} {
		t.Run(tc.api, func(t *testing.T) {
			lastFailed, firstFailing := make(chan struct{}), make(chan struct{})
			var siblingDone atomic.Bool
			defer func() {
				r := recover()
				if !tc.want(r) {
					t.Errorf("recovered %v (%T), want pt0's failure", r, r)
				}
				if !siblingDone.Load() {
					t.Error("unwound while pt1 was still running")
				}
			}()
			tc.call(New(3), func(i int) int {
				switch i {
				case 2: // fails first in time
					defer close(lastFailed)
					panic("pt2 fails")
				case 0: // fails second, first in item order
					<-lastFailed
					defer close(firstFailing)
					panic("pt0 fails")
				default: // still in flight after both failures have resolved
					<-firstFailing
					time.Sleep(50 * time.Millisecond)
					siblingDone.Store(true)
				}
				return i
			})
			t.Error("did not panic")
		})
	}
}
