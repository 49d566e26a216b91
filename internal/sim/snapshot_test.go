package sim

import "testing"

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

// TestSnapshotDeterministic pins the fingerprint's property: two engines
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
// digest — cancellation is part of the deterministic schedule, so two runs
// of it both cancel the event, but the lazily deleted queue slot (an
// engine-internal artifact) must not leak in.
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
