package sim

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// EngineState is a compact, serializable fingerprint of an engine between
// events: virtual time, the insertion-sequence counter, the executed-event
// count, and an order-exact digest of every pending event's (at, ins, seq)
// sort key. The queue keys are downstream of every RNG draw and every
// scheduling decision made so far, so a single diverging draw or reordered
// event flips the digest. No run takes one: sim's model and pool tests
// compare engines by it, netsim's pool test reads its Seq, and the bench's
// checkpoint probe fills a file with them.
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

// Snapshot captures the engine's progress state. It must be taken between
// events, never from inside a callback.
func (e *Engine) Snapshot() EngineState {
	var live []*Event
	keep := func(ev *Event) {
		if ev.state == evFiled {
			live = append(live, ev)
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
