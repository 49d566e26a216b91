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

// TestMapResultsNamedRetriesWatchdogOnce: a point whose first attempt trips
// the watchdog is resubmitted exactly once with the same closure; a fast
// second attempt turns the sweep healthy.
func TestMapResultsNamedRetriesWatchdogOnce(t *testing.T) {
	p := New(4)
	p.SetWatchdog(30 * time.Millisecond)
	var calls atomic.Int32
	release := make(chan struct{})
	defer close(release)
	out := MapResultsNamed(p, []int{1, 2, 3},
		func(i int) string { return fmt.Sprintf("pt%d", i) },
		func(i int) int {
			if i == 2 && calls.Add(1) == 1 {
				<-release // first attempt of point 2 wedges
			}
			return i * 10
		})
	for i, r := range out {
		if r.Err != nil || r.Val != (i+1)*10 {
			t.Fatalf("out[%d] = %+v", i, r)
		}
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

// TestMapNWaitsForInFlightOnFailure: a failed index must not unwind the
// caller while a sibling is still running — the sibling may hold state the
// caller is about to tear down — and with two failures it is the first in
// index order that is raised, not the first in time.
func TestMapNWaitsForInFlightOnFailure(t *testing.T) {
	lastFailed, firstFailing := make(chan struct{}), make(chan struct{})
	var siblingDone atomic.Bool
	defer func() {
		if r := recover(); r != "pt0 fails" {
			t.Errorf("recovered %v (%T), want pt0's failure", r, r)
		}
		if !siblingDone.Load() {
			t.Error("unwound while pt1 was still running")
		}
	}()
	MapN(New(3), 3, func(i int) int {
		switch i {
		case 2: // fails first in time
			defer close(lastFailed)
			panic("pt2 fails")
		case 0: // fails second, first in index order
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
}
