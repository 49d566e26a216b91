package sim

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	eng := NewEngine()
	var got []int
	eng.Schedule(30, func() { got = append(got, 3) })
	eng.Schedule(10, func() { got = append(got, 1) })
	eng.Schedule(20, func() { got = append(got, 2) })
	eng.RunUntilIdle()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	if eng.Now() != 30 {
		t.Fatalf("clock = %d, want 30", eng.Now())
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	eng := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		eng.Schedule(5, func() { got = append(got, i) })
	}
	eng.RunUntilIdle()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of insertion order at %d: %v", i, v)
		}
	}
}

func TestRunUntilBoundary(t *testing.T) {
	eng := NewEngine()
	fired := 0
	eng.At(10, func() { fired++ })
	eng.At(11, func() { fired++ })
	eng.Run(10)
	if fired != 1 {
		t.Fatalf("events at exactly `until` must fire: fired = %d", fired)
	}
	if eng.Now() != 10 {
		t.Fatalf("clock = %d", eng.Now())
	}
	eng.Run(20)
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
	// Clock advances to `until` even with no events.
	if eng.Now() != 20 {
		t.Fatalf("clock = %d, want 20", eng.Now())
	}
}

func TestCancel(t *testing.T) {
	eng := NewEngine()
	fired := false
	ev := eng.Schedule(10, func() { fired = true })
	eng.Cancel(ev)
	if !ev.Cancelled() || ev.Fired() {
		t.Fatalf("event state wrong: %+v", ev)
	}
	// Cancelling again (and cancelling nil) is a no-op.
	eng.Cancel(ev)
	eng.Cancel(nil)
	eng.RunUntilIdle()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !Debug {
		// After the drain the object sits in the free list; a stale handle
		// keeps reporting its final state in release builds (under simdebug
		// any access panics — covered in pool_test.go).
		if !ev.Cancelled() || ev.Fired() {
			t.Fatalf("stale handle state wrong: %+v", ev)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	eng := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			eng.Schedule(1, rec)
		}
	}
	eng.Schedule(0, rec)
	eng.RunUntilIdle()
	if depth != 50 {
		t.Fatalf("depth = %d", depth)
	}
	if eng.Now() != 49 {
		t.Fatalf("clock = %d", eng.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	eng := NewEngine()
	eng.At(100, func() {})
	eng.Run(100)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	eng.At(50, func() {})
}

// The wheel costs a pointer and two bitmap bits a bucket; a geometry change
// must not hand the benchmark's alloc_mb back without showing up here.
func TestNewEngineFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng := NewEngine()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(eng)
	if got := after.TotalAlloc - before.TotalAlloc; got > 96<<10 {
		t.Fatalf("NewEngine allocates %d bytes, limit %d", got, 96<<10)
	}
}

// Property: any batch of events executes in nondecreasing time order.
func TestTimeMonotoneProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		eng := NewEngine()
		var times []Time
		for _, d := range delays {
			eng.Schedule(Time(d), func() { times = append(times, eng.Now()) })
		}
		eng.RunUntilIdle()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	if Second != 1e9 || Millisecond != 1e6 || Microsecond != 1e3 {
		t.Fatal("time constants wrong")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds conversion wrong")
	}
	if (1500 * Microsecond).String() != "1.5ms" {
		t.Fatalf("String = %q", (1500 * Microsecond).String())
	}
}

func TestRNGForkDeterminism(t *testing.T) {
	a := NewRNG(42).Fork("workload")
	b := NewRNG(42).Fork("workload")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, name) fork diverged")
		}
	}
	c := NewRNG(42).Fork("other")
	d := NewRNG(42).Fork("workload")
	same := true
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different fork names produced identical streams")
	}
}

func TestIntnExcept(t *testing.T) {
	rng := NewRNG(1)
	for i := 0; i < 10_000; i++ {
		v := rng.IntnExcept(8, 3)
		if v == 3 || v < 0 || v >= 8 {
			t.Fatalf("IntnExcept returned %d", v)
		}
	}
	// Out-of-range except degrades to plain Intn.
	if v := rng.IntnExcept(4, 9); v < 0 || v >= 4 {
		t.Fatalf("IntnExcept with oob except returned %d", v)
	}
}

func TestExp(t *testing.T) {
	rng := NewRNG(2)
	var sum float64
	const n = 50_000
	for i := 0; i < n; i++ {
		d := rng.Exp(1000)
		if d < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += float64(d)
	}
	mean := sum / n
	if mean < 950 || mean > 1050 {
		t.Fatalf("exponential mean = %v, want ~1000", mean)
	}
	if rng.Exp(0) != 0 {
		t.Fatal("Exp(0) should be 0")
	}
}

func TestCancelledEventsReclaimed(t *testing.T) {
	// Cancelled events are skipped (not executed) and the heap drains.
	eng := NewEngine()
	var evs []*Event
	for i := 0; i < 1000; i++ {
		evs = append(evs, eng.Schedule(Time(i), func() { t.Fatal("cancelled event ran") }))
	}
	for _, ev := range evs {
		eng.Cancel(ev)
	}
	eng.Run(2000)
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after draining cancelled events", eng.Pending())
	}
	if eng.Executed != 0 {
		t.Fatalf("executed = %d, want 0", eng.Executed)
	}
}

func TestEventAccessors(t *testing.T) {
	eng := NewEngine()
	fired := false
	ev := eng.Schedule(42, func() { fired = true })
	if ev.Time() != 42 || ev.Fired() || ev.Cancelled() {
		t.Fatalf("fresh event state wrong: %+v", ev)
	}
	eng.RunUntilIdle()
	if !fired {
		t.Fatal("event did not run")
	}
	if !Debug {
		// The recycled handle still reports its final state until reuse.
		if !ev.Fired() {
			t.Fatal("event not marked fired")
		}
	}
}

// NextAt peeks at the next live event's due time and runs nothing.
func TestNextAtPeeksWithoutRunning(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on empty engine reported an event")
	}
	e.Schedule(30, func() {})
	h := e.Schedule(10, func() {})
	e.Schedule(20, func() {})
	if at, ok := e.NextAt(); !ok || at != 10 {
		t.Fatalf("NextAt = %v,%v; want 10,true", at, ok)
	}
	if e.Now() != 0 || e.Executed != 0 {
		t.Fatalf("NextAt advanced the engine: now=%v executed=%d", e.Now(), e.Executed)
	}
	// Cancelling the root must make NextAt discard it and report the next
	// live event, exactly as Run would.
	e.Cancel(h)
	if at, ok := e.NextAt(); !ok || at != 20 {
		t.Fatalf("NextAt after cancel = %v,%v; want 20,true", at, ok)
	}
	e.RunUntilIdle()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on drained engine reported an event")
	}
}
