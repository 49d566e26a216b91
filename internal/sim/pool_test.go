package sim

import "testing"

// Tests for the event free list: recycled-handle semantics in release
// builds, panic tripwires under -tags simdebug, the compaction bound on
// cancel-heavy workloads, and allocation-freedom of the steady state.

// mustPanic asserts fn panics (simdebug tripwires).
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// In release builds a handle retained past its callback is harmless: it
// reports its final state until the engine reuses the object, Cancel on it
// is a no-op, and the engine stays consistent throughout.
func TestRecycledHandleSafety(t *testing.T) {
	if Debug {
		t.Skip("release-mode semantics; simdebug panics instead (TestSimdebugTripwires)")
	}
	eng := NewEngine()
	ev := eng.Schedule(1, func() {})
	eng.RunUntilIdle()

	// Stale reads are safe and sticky.
	if !ev.Fired() || ev.Cancelled() {
		t.Fatalf("stale handle state: fired=%v cancelled=%v", ev.Fired(), ev.Cancelled())
	}
	// Cancel on a fired (recycled) handle is a no-op.
	eng.Cancel(ev)

	// The free list is LIFO, so the next Schedule reuses the same object —
	// this is the documented hazard: the stale handle now observes the new
	// incarnation.
	fired := false
	ev2 := eng.Schedule(5, func() { fired = true })
	if ev2 != ev {
		t.Fatalf("free list did not recycle the fired event object")
	}
	if ev.Fired() || ev.Time() != eng.Now()+5 {
		t.Fatalf("recycled object not reset: fired=%v at=%d", ev.Fired(), ev.Time())
	}
	eng.RunUntilIdle()
	if !fired || eng.Executed != 2 {
		t.Fatalf("engine inconsistent after recycling: fired=%v executed=%d", fired, eng.Executed)
	}
}

// Under -tags simdebug any access to a recycled handle panics with
// generation diagnostics instead of silently reading pooled state.
func TestSimdebugTripwires(t *testing.T) {
	if !Debug {
		t.Skip("requires -tags simdebug")
	}
	eng := NewEngine()
	ev := eng.Schedule(1, func() {})
	eng.RunUntilIdle()
	mustPanic(t, "Fired on recycled handle", func() { ev.Fired() })
	mustPanic(t, "Cancelled on recycled handle", func() { ev.Cancelled() })
	mustPanic(t, "Time on recycled handle", func() { ev.Time() })
	mustPanic(t, "Cancel on recycled handle", func() { eng.Cancel(ev) })
}

// An embedded event is its owner's for the owner's life: the engine fires it
// without recycling it, Cancel takes it out of the queue at once so that the
// owner can file it again straight away, and Reset cancels it and leaves it
// where it is.
func TestEmbeddedEventLifetime(t *testing.T) {
	eng := NewEngine()
	ran := 0
	o := &owner{fire: func() { ran++ }}
	eng.FileAt(&o.ev, 10, 0, TagNone, o)
	if !o.ev.Filed() || eng.Pending() != 1 {
		t.Fatalf("filed: Filed=%v pending=%d", o.ev.Filed(), eng.Pending())
	}
	eng.Cancel(&o.ev)
	if !o.ev.Cancelled() || o.ev.Filed() || eng.Pending() != 0 {
		t.Fatalf("cancelled: Cancelled=%v Filed=%v pending=%d, want out of the queue", o.ev.Cancelled(), o.ev.Filed(), eng.Pending())
	}
	eng.FileAt(&o.ev, 20, 0, TagNone, o)
	eng.RunUntilIdle()
	if ran != 1 || !o.ev.Fired() || eng.Executed != 1 || eng.Now() != 20 {
		t.Fatalf("fired: ran=%d Fired=%v executed=%d now=%d", ran, o.ev.Fired(), eng.Executed, eng.Now())
	}
	// Not in the free list: a pooled event is a new object.
	if ev := eng.Schedule(1, func() {}); ev == &o.ev {
		t.Fatal("the engine recycled an embedded event")
	}
	// Reset with it filed on the wheel, and a pooled event beside it.
	eng.FileAt(&o.ev, 100, 20, TagNone, o)
	eng.Reset()
	if !o.ev.Cancelled() || eng.Pending() != 0 {
		t.Fatalf("after Reset: Cancelled=%v pending=%d", o.ev.Cancelled(), eng.Pending())
	}
	for i := 0; i < 4; i++ {
		if ev := eng.Schedule(1, func() {}); ev == &o.ev {
			t.Fatal("Reset put an embedded event on the free list")
		}
	}
	eng.FileAt(&o.ev, 5, 0, TagNone, o)
	eng.RunUntilIdle()
	if ran != 2 || eng.Executed != 5 {
		t.Fatalf("after Reset: ran=%d executed=%d, want 2 and 5", ran, eng.Executed)
	}
}

// Under -tags simdebug an owner that files its event while it is still
// filed — a second pending event on an object that has room for one — panics
// before the queue is touched.
func TestSimdebugEmbeddedTripwire(t *testing.T) {
	if !Debug {
		t.Skip("requires -tags simdebug")
	}
	eng := NewEngine()
	o := &owner{fire: func() {}}
	eng.FileAt(&o.ev, 10, 0, TagNone, o)
	mustPanic(t, "filing a filed embedded event", func() { eng.FileAt(&o.ev, 20, 0, TagNone, o) })
	far := &owner{fire: func() {}}
	eng.FileAt(&far.ev, Second, 0, TagNone, far)
	mustPanic(t, "filing a filed embedded event in the overflow heap", func() { eng.FileAt(&far.ev, 30, 0, TagNone, far) })
	if err := checkQueue(eng); err != nil || eng.Pending() != 2 {
		t.Fatalf("queue after the tripwires: %v, pending %d", err, eng.Pending())
	}
	// Fired or cancelled, it may be filed again.
	eng.Cancel(&far.ev)
	eng.FileAt(&far.ev, 30, 0, TagNone, far)
	eng.RunUntilIdle()
	eng.FileAt(&o.ev, 40, 30, TagNone, o)
	eng.RunUntilIdle()
	if eng.Executed != 3 {
		t.Fatalf("executed %d, want 3", eng.Executed)
	}
}

// Cancel/reschedule churn — the retransmission-timer pattern, where every
// ACK cancels and re-arms an RTO tens of milliseconds out — must not grow the
// overflow heap without bound: compaction reclaims lazily-deleted timers once
// they outnumber its live ones.
func TestCancelChurnBounded(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// A population of live far-future events keeps the heap non-trivial; the
	// first event keeps the cursor at the clock, so the timers are filed as
	// they are in a run: beyond the horizon.
	const liveN = 40
	eng.Schedule(0, fn)
	for i := 1; i < liveN; i++ {
		eng.Schedule(20*Millisecond+Time(i), fn)
	}
	maxPending := 0
	for i := 0; i < 200_000; i++ {
		ev := eng.Schedule(10*Millisecond+Time(i%97), fn)
		eng.Cancel(ev)
		if p := eng.Pending(); p > maxPending {
			maxPending = p
		}
		if !ev.pooled && !ev.far {
			t.Fatalf("timer %d was not filed in the overflow heap", i)
		}
	}
	// Bound: live events + at most ~one compaction's worth of cancelled
	// slack (cancelled may reach the live count plus the compactMin floor
	// before a compaction triggers).
	if limit := 2*(liveN+compactMin) + 2; maxPending > limit {
		t.Fatalf("heap grew to %d entries under cancel churn (limit %d)", maxPending, limit)
	}
	eng.RunUntilIdle()
	if eng.Executed != liveN {
		t.Fatalf("executed %d, want %d (cancelled event ran or live event lost)", eng.Executed, liveN)
	}
}

// On the wheel a cancelled event is not compacted: it waits at most one
// horizon for the cursor to reach its bucket and is dropped there. Churn
// against a running clock therefore holds at most a horizon's worth of them.
func TestCancelChurnOnWheelBoundedByHorizon(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	const every = 100 * Nanosecond
	horizon := Time(wheelBuckets) << wheelLogW
	maxPending := 0
	var tick func()
	n := 0
	tick = func() {
		eng.Cancel(eng.Schedule(horizon/2, fn))
		if p := eng.Pending(); p > maxPending {
			maxPending = p
		}
		if n++; n < 50_000 {
			eng.Schedule(every, tick)
		}
	}
	eng.Schedule(0, tick)
	eng.RunUntilIdle()
	if limit := int(horizon/2/every) + 2; maxPending > limit {
		t.Fatalf("%d events pending under on-wheel cancel churn (limit %d)", maxPending, limit)
	}
	if eng.Executed != 50_000 || eng.Pending() != 0 {
		t.Fatalf("executed %d, pending %d after the drain", eng.Executed, eng.Pending())
	}
}

// Compaction must preserve the exact (time, seq) pop order of the surviving
// events. The timers sit beyond the horizon, where compaction happens; the
// event at the clock keeps the cursor from snapping out to them.
func TestCompactionPreservesOrder(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(0, func() {})
	const base = 10 * Millisecond
	var got []int
	var cancels []*Event
	for i := 0; i < 300; i++ {
		i := i
		if i%3 == 0 {
			// Live events at descending times, so heap order is nontrivial.
			eng.At(base+Time(1000-i), func() { got = append(got, 1000-i) })
		} else {
			cancels = append(cancels, eng.At(base+Time(2000+i), func() { t.Error("cancelled event ran") }))
		}
	}
	for _, ev := range cancels {
		eng.Cancel(ev)
	}
	if len(eng.overflow) >= 200 {
		t.Fatalf("overflow heap still holds %d of 300 after 200 cancels: no compaction ran", len(eng.overflow))
	}
	eng.RunUntilIdle()
	if len(got) != 100 {
		t.Fatalf("fired %d live events, want 100", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order after compaction: %v", got)
		}
	}
}

// Steady-state scheduling must be allocation-free: after warm-up every
// Schedule is served from the free list and firing releases back into it.
func TestScheduleSteadyStateAllocFree(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ { // warm the free list
		eng.Schedule(Time(i%7), fn)
	}
	eng.RunUntilIdle()
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 256; i++ {
			eng.Schedule(Time(i%11), fn)
		}
		eng.RunUntilIdle()
	})
	if allocs > 0 {
		t.Fatalf("steady-state scheduling allocates %.1f times per batch", allocs)
	}
}

// dirtyBurst is how many events dirtyEngine piles onto one instant.
const dirtyBurst = 96

// dirtyEngine returns an engine abandoned mid-run in every state Reset has to
// clear: live and cancelled events on the wheel, in the due heap and in the
// overflow heap, a cursor far from zero. It also returns one live and one
// cancelled handle still in the queue.
func dirtyEngine(t *testing.T) (eng *Engine, live, cancelled *Event) {
	t.Helper()
	eng = NewEngine()
	fn := func() {}
	for i := 0; i < dirtyBurst; i++ {
		eng.Schedule(700*Microsecond, fn)
	}
	eng.Run(650 * Microsecond) // the cursor leaves tick zero and the burst becomes the due heap
	eng.Cancel(eng.due[len(eng.due)-1])
	live = eng.Schedule(60*Microsecond, fn)
	cancelled = eng.Schedule(70*Microsecond, fn)
	eng.Cancel(cancelled)
	far := eng.Schedule(50*Millisecond, fn) // overflow
	eng.Schedule(60*Millisecond, fn)
	eng.Cancel(far)
	if eng.nWheel != 2 || len(eng.due) != dirtyBurst || len(eng.overflow) != 2 || eng.nCancel != 1 || eng.curTick == 0 {
		t.Fatalf("engine not dirty as intended: wheel=%d due=%d overflow=%d cancelled=%d tick=%d",
			eng.nWheel, len(eng.due), len(eng.overflow), eng.nCancel, eng.curTick)
	}
	return eng, live, cancelled
}

// A reset engine is a new engine — same snapshot, same pop order — that kept
// its allocations.
func TestResetMatchesNewEngine(t *testing.T) {
	eng, _, _ := dirtyEngine(t)
	eng.Reset()
	if got, want := eng.Snapshot(), NewEngine().Snapshot(); got != want {
		t.Fatalf("snapshot after Reset %+v, new engine %+v", got, want)
	}
	if eng.Pending() != 0 || eng.Executed != 0 || eng.Now() != 0 {
		t.Fatalf("after Reset: pending=%d executed=%d now=%v", eng.Pending(), eng.Executed, eng.Now())
	}

	// The same schedule pops identically on both, snapshots equal throughout.
	run := func(e *Engine) (order []int, trace []EngineState) {
		for i := 0; i < 200; i++ {
			i := i
			e.Schedule(Time(i%13)*300*Microsecond+Time(i%5), func() { order = append(order, i) })
		}
		for e.Step() {
			trace = append(trace, e.Snapshot())
		}
		return
	}
	gotOrder, gotTrace := run(eng)
	wantOrder, wantTrace := run(NewEngine())
	for k := range wantOrder {
		if gotOrder[k] != wantOrder[k] || gotTrace[k] != wantTrace[k] {
			t.Fatalf("step %d: recycled engine popped %d in state %+v, new engine %d in %+v",
				k, gotOrder[k], gotTrace[k], wantOrder[k], wantTrace[k])
		}
	}

	// Everything the abandoned run held went back to the free list: the next
	// run of the same size schedules without allocating.
	eng, _, _ = dirtyEngine(t)
	fn := func() {}
	allocs := testing.AllocsPerRun(20, func() {
		eng.Reset()
		for i := 0; i < dirtyBurst; i++ {
			eng.Schedule(700*Microsecond, fn)
		}
		eng.Schedule(50*Millisecond, fn)
	})
	if allocs > 0 {
		t.Fatalf("a run on a recycled engine allocates %.1f times", allocs)
	}
}

// Reset ends every handle's lifetime. In release builds a handle kept across
// it is harmless — it reads as cancelled and Cancel on it is a no-op, so the
// recycled engine's books stay straight; simdebug panics on any access.
func TestHandleKeptAcrossReset(t *testing.T) {
	eng, live, cancelled := dirtyEngine(t)
	eng.Reset()
	if Debug {
		mustPanic(t, "Cancelled on a handle kept across Reset", func() { live.Cancelled() })
		mustPanic(t, "Cancel on a handle kept across Reset", func() { eng.Cancel(live) })
		mustPanic(t, "Cancel on a cancelled handle kept across Reset", func() { eng.Cancel(cancelled) })
		return
	}
	if !live.Cancelled() || live.Fired() {
		t.Fatalf("handle kept across Reset: cancelled=%v fired=%v, want cancelled and never fired", live.Cancelled(), live.Fired())
	}
	eng.Cancel(live)
	eng.Cancel(cancelled)
	ran := false
	eng.Schedule(1, func() { ran = true })
	eng.RunUntilIdle()
	if !ran || eng.Executed != 1 || eng.Pending() != 0 || eng.nCancel != 0 {
		t.Fatalf("recycled engine inconsistent after stale Cancel: ran=%v executed=%d pending=%d nCancel=%d",
			ran, eng.Executed, eng.Pending(), eng.nCancel)
	}
}
