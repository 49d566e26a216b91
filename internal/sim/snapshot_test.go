package sim

import (
	"strings"
	"testing"
)

// buildWorkload schedules a deterministic mix of near (wheel), far
// (overflow), tagged, and cancelled events and returns the engine.
func buildWorkload(cancel bool) *Engine {
	e := NewEngine()
	var chain func()
	n := 0
	chain = func() {
		n++
		if n < 50 {
			e.Schedule(3*Microsecond, chain)
		}
	}
	e.Schedule(0, chain)
	e.At(2*Millisecond, func() {})             // overflow path
	e.AtTagged(5*Microsecond, 0, 7, func() {}) // explicit ordering tag
	ev := e.Schedule(90*Microsecond, func() {})
	if cancel {
		e.Cancel(ev)
	}
	return e
}

// TestSnapshotDeterministic pins the core checkpoint property: two engines
// driven through the identical schedule report identical snapshots at every
// step, and any extra event flips the queue digest.
func TestSnapshotDeterministic(t *testing.T) {
	a, b := buildWorkload(false), buildWorkload(false)
	for i := 0; i < 30; i++ {
		sa, sb := a.Snapshot(), b.Snapshot()
		if sa != sb {
			t.Fatalf("step %d: snapshots diverge:\n a=%+v\n b=%+v", i, sa, sb)
		}
		a.Step()
		b.Step()
	}
	b.Schedule(time50us, func() {})
	if a.Snapshot().QueueDigest == b.Snapshot().QueueDigest {
		t.Fatal("extra scheduled event did not change the queue digest")
	}
}

const time50us = 50 * Microsecond

// TestSnapshotExcludesCancelled: a cancelled event must not appear in the
// digest — cancellation is part of the deterministic schedule, so both the
// original and the replayed engine will have cancelled it, but the lazily
// deleted queue slot (an engine-internal artifact) must not leak in.
func TestSnapshotExcludesCancelled(t *testing.T) {
	a, b := buildWorkload(false), buildWorkload(true)
	// Same schedule except b cancelled one event: digests must differ
	// (the event is truly gone from b's future)...
	if a.Snapshot().QueueDigest == b.Snapshot().QueueDigest {
		t.Fatal("cancelled event still present in digest")
	}
	// ...and b must match an engine that never scheduled it. Pending
	// counts agree too: Snapshot counts only live events.
	c := buildWorkload(true)
	sb, sc := b.Snapshot(), c.Snapshot()
	if sb.QueueDigest != sc.QueueDigest || sb.Pending != sc.Pending {
		t.Fatalf("cancel-path snapshots diverge: %+v vs %+v", sb, sc)
	}
}

// TestVerifyRestoreReplay is the restore contract end to end: record a
// snapshot mid-run, rebuild the engine from scratch, replay to the same
// event count, and VerifyRestore must accept; one extra event must panic
// with the divergence diagnostic.
func TestVerifyRestoreReplay(t *testing.T) {
	const at = 17
	orig := buildWorkload(true)
	for orig.Executed < at && orig.Step() {
	}
	want := orig.Snapshot()

	replay := buildWorkload(true)
	for replay.Executed < at && replay.Step() {
	}
	if replay.Executed != at {
		t.Fatalf("queue drained after %d events, before %d", replay.Executed, at)
	}
	replay.VerifyRestore(want) // must not panic

	replay.Step()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("VerifyRestore accepted a diverged engine")
		}
		if !strings.Contains(r.(string), "diverged from checkpoint") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	replay.VerifyRestore(want)
}
