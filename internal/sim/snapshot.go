package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// EngineState is a compact, serializable fingerprint of an engine at a safe
// point (between events). It is the unit of checkpoint/resume: pending
// events are closures over live simulation objects and have no direct
// serialized form, but every run in this repository is a pure function of
// its configuration and seed, so a checkpoint records *where* the engine
// was — virtual time, the insertion-sequence counter, the executed-event
// count — plus an order-exact digest of every pending event's
// (at, ins, seq) sort key. A restore re-executes the run deterministically
// and calls VerifyRestore as it passes the recorded state; because the
// queue keys are downstream of every RNG draw and every scheduling
// decision made so far, a single diverging draw or reordered event flips
// the digest and trips verification instead of silently corrupting
// results.
//
// Free-list contents, cancelled-event bookkeeping (nCancel), and wheel
// cursor position are deliberately excluded: they are engine-internal
// caches that regenerate and never influence the pop order of live events.
type EngineState struct {
	// Now is the engine clock at the snapshot instant.
	Now Time `json:"now"`
	// Seq is the insertion-sequence counter (total events ever scheduled).
	Seq uint64 `json:"seq"`
	// Executed counts events whose callbacks have run.
	Executed uint64 `json:"executed"`
	// Pending counts live (non-cancelled) scheduled events.
	Pending int `json:"pending"`
	// QueueDigest hashes every live pending event's (at, ins, seq) key in
	// pop order, fingerprinting the entire future event schedule.
	QueueDigest uint64 `json:"queue_digest"`
}

// Snapshot captures the engine's progress state. It must be taken at a safe
// point — between events, never from inside a callback — which every caller
// in this repository guarantees by snapshotting only at drain-chunk or
// shard-window boundaries where the engine is quiescent.
func (e *Engine) Snapshot() EngineState {
	live := e.liveEntries(nil)
	sort.Slice(live, func(i, j int) bool { return live[i].before(live[j]) })
	h := fnv.New64a()
	var b [24]byte
	for _, en := range live {
		binary.LittleEndian.PutUint64(b[0:], uint64(en.at))
		binary.LittleEndian.PutUint64(b[8:], uint64(en.ins))
		binary.LittleEndian.PutUint64(b[16:], en.seq)
		h.Write(b[:])
	}
	return EngineState{
		Now:         e.now,
		Seq:         e.seq,
		Executed:    e.Executed,
		Pending:     len(live),
		QueueDigest: h.Sum64(),
	}
}

// liveEntries appends every non-cancelled pending event to dst.
func (e *Engine) liveEntries(dst []*Event) []*Event {
	keep := func(ev *Event) {
		if ev.state == evFiled {
			dst = append(dst, ev)
		}
	}
	e.eachList(func(i int) {
		for ev := e.buckets[i]; ev != nil; ev = ev.next {
			keep(ev)
		}
	})
	for _, ev := range e.due {
		keep(ev)
	}
	for _, ev := range e.overflow {
		keep(ev)
	}
	return dst
}

// VerifyRestore cross-checks a replayed engine against the state recorded
// at the original checkpoint instant and panics with a diagnostic on any
// divergence. A resumed run that is not byte-identical to the uninterrupted
// one must fail loudly at the earliest detectable point — continuing would
// publish silently wrong results — so the panic is unconditional, not
// simdebug-gated; the simdebug build additionally dumps the head of the
// live event queue for forensics.
func (e *Engine) VerifyRestore(want EngineState) {
	got := e.Snapshot()
	if got == want {
		return
	}
	panic(fmt.Sprintf(
		"sim: restored engine diverged from checkpoint\n  recorded: %+v\n  restored: %+v%s",
		want, got, e.debugQueueDump(16)))
}
