package runpool

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// pointName labels item i for the named fan-out APIs.
func pointName(i int) string { return fmt.Sprintf("pt%d", i) }

func TestMapPreservesOrder(t *testing.T) {
	p := New(8)
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	// Earlier items sleep longer, so completion order is roughly reversed;
	// the results must still come back in submission order.
	out := MapResultsNamed(p, items, pointName, func(i int) int {
		time.Sleep(time.Duration(len(items)-i) * 10 * time.Microsecond)
		return i * i
	})
	if len(out) != len(items) {
		t.Fatalf("len = %d", len(out))
	}
	for i, r := range out {
		if r.Err != nil || r.Val != i*i {
			t.Fatalf("out[%d] = %+v, want %d", i, r, i*i)
		}
	}
}

func TestParallelismBound(t *testing.T) {
	const bound = 3
	p := New(bound)
	if cap(p.sem) != bound {
		t.Fatalf("parallelism = %d", cap(p.sem))
	}
	var running, peak, violations int64
	MapN(p, 50, func(int) struct{} {
		n := atomic.AddInt64(&running, 1)
		if n > bound {
			atomic.AddInt64(&violations, 1)
		}
		for {
			old := atomic.LoadInt64(&peak)
			if n <= old || atomic.CompareAndSwapInt64(&peak, old, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		atomic.AddInt64(&running, -1)
		return struct{}{}
	})
	if violations > 0 {
		t.Fatalf("%d tasks observed more than %d running", violations, bound)
	}
	if runtime.GOMAXPROCS(0) > 1 && peak < 2 {
		t.Logf("peak concurrency %d on %d procs (scheduling-dependent)", peak, runtime.GOMAXPROCS(0))
	}
}

func TestSequentialPoolRunsOneAtATime(t *testing.T) {
	p := New(1)
	var running int64
	MapN(p, 20, func(int) struct{} {
		if n := atomic.AddInt64(&running, 1); n != 1 {
			t.Errorf("%d tasks running in a parallelism-1 pool", n)
		}
		time.Sleep(50 * time.Microsecond)
		atomic.AddInt64(&running, -1)
		return struct{}{}
	})
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := cap(New(0).sem), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("cap(New(0).sem) = %d, want %d", got, want)
	}
	if got, want := cap(New(-5).sem), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("cap(New(-5).sem) = %d, want %d", got, want)
	}
}

func TestWaitIsIdempotent(t *testing.T) {
	p := New(2)
	f := SubmitNamed(p, "", func() int { return 42 })
	if f.Wait() != 42 || f.Wait() != 42 {
		t.Fatal("repeated Wait changed the result")
	}
}

func TestResultRecoversPanicIntoError(t *testing.T) {
	p := New(2)
	f := SubmitNamed(p, "", func() int { panic("boom") })
	v, err := f.Result()
	if v != 0 {
		t.Fatalf("value = %d, want zero", v)
	}
	pe, ok := err.(*PanicError)
	if !ok {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "boom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	// Result is idempotent and never panics.
	if _, err2 := f.Result(); err2 != err {
		t.Fatal("second Result returned a different error")
	}
}

// TestMapResultsSweepSurvivesPanics pins the crash-proof harness contract:
// one deliberately panicking point must not abort the sweep — every other
// point completes and reports, in submission order.
func TestMapResultsSweepSurvivesPanics(t *testing.T) {
	p := New(4)
	items := make([]int, 20)
	for i := range items {
		items[i] = i
	}
	out := MapResultsNamed(p, items, pointName, func(i int) int {
		if i == 7 {
			panic("point 7 exploded")
		}
		return i * i
	})
	if len(out) != len(items) {
		t.Fatalf("len = %d", len(out))
	}
	for i, r := range out {
		if i == 7 {
			if r.Err == nil {
				t.Fatal("panicking point reported no error")
			}
			continue
		}
		if r.Err != nil || r.Val != i*i {
			t.Fatalf("out[%d] = %+v, want %d", i, r, i*i)
		}
	}
	// The pool is still fully usable afterwards.
	if got := SubmitNamed(p, "", func() int { return 7 }).Wait(); got != 7 {
		t.Fatalf("pool unusable after recovered panics: %d", got)
	}
}

func TestWatchdogResolvesStuckPoint(t *testing.T) {
	p := New(4)
	p.SetWatchdog(20 * time.Millisecond)
	release := make(chan struct{})
	stuck := SubmitNamed(p, "", func() int { <-release; return 1 })
	_, err := stuck.Result()
	we, ok := err.(*WatchdogError)
	if !ok {
		t.Fatalf("err = %v (%T), want *WatchdogError", err, err)
	}
	if we.Limit != 20*time.Millisecond {
		t.Fatalf("Limit = %v", we.Limit)
	}
	// Healthy points on the same pool still complete.
	if v, err := SubmitNamed(p, "", func() int { return 9 }).Result(); err != nil || v != 9 {
		t.Fatalf("healthy point after timeout: v=%d err=%v", v, err)
	}
	close(release) // let the stuck goroutine finish and release its slot
}

func TestWatchdogOffByDefault(t *testing.T) {
	p := New(1)
	if v, err := SubmitNamed(p, "", func() int {
		time.Sleep(5 * time.Millisecond)
		return 3
	}).Result(); err != nil || v != 3 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

func TestPanicPropagates(t *testing.T) {
	p := New(2)
	f := SubmitNamed(p, "", func() int { panic("boom") })
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		// The slot must have been released despite the panic.
		if got := SubmitNamed(p, "", func() int { return 7 }).Wait(); got != 7 {
			t.Fatalf("pool unusable after panic: %d", got)
		}
	}()
	f.Wait()
}

// The scratch free list passes each task's reusable state to a later task:
// values are built only while fewer exist than tasks run at once, every task
// owns its value exclusively, and the list never holds more than the pool's
// parallelism — not even when values are put from outside the pool's slots.
func TestScratchBoundedByParallelism(t *testing.T) {
	const bound = 3
	p := New(bound)
	type scratch struct{ inUse atomic.Bool }
	var built, shared, overfull atomic.Int64
	MapN(p, 200, func(int) struct{} {
		s, _ := p.TakeScratch().(*scratch)
		if s == nil {
			s = &scratch{}
			built.Add(1)
		}
		if !s.inUse.CompareAndSwap(false, true) {
			shared.Add(1)
		}
		time.Sleep(50 * time.Microsecond)
		s.inUse.Store(false)
		p.PutScratch(s)
		if p.ScratchHeld() > bound {
			overfull.Add(1)
		}
		return struct{}{}
	})
	if n := built.Load(); n < 1 || n > bound {
		t.Errorf("built %d scratch values for %d workers", n, bound)
	}
	if shared.Load() > 0 {
		t.Errorf("%d tasks were handed a value another task was using", shared.Load())
	}
	if overfull.Load() > 0 || p.ScratchHeld() > bound {
		t.Errorf("free list exceeded the pool's parallelism (%d held at the end)", p.ScratchHeld())
	}
	for i := 0; i < 2*bound; i++ {
		p.PutScratch(&scratch{})
	}
	if p.ScratchHeld() != bound {
		t.Errorf("free list holds %d values after %d extra puts, want the bound %d", p.ScratchHeld(), 2*bound, bound)
	}
	if New(1).TakeScratch() != nil {
		t.Error("TakeScratch on an empty list returned a value")
	}
}
