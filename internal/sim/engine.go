// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps virtual time as int64 nanoseconds and executes scheduled
// events in (time, insertion-order) order, so two runs with the same seed and
// the same schedule of calls produce bit-identical results. All of the fabric,
// transport, and workload packages in this repository are driven by a single
// Engine instance per simulation run.
//
// # Hot-path design
//
// Schedule/Step are the innermost loop of every experiment, so the engine
// avoids allocation, interface dispatch, and pointer chasing there. Pending
// events live in a calendar queue: a timing wheel of power-of-two-width time
// buckets for the near future, backed by a single overflow heap for events
// beyond the wheel's horizon (retransmission timers, teardown). Fabric
// events — switch pipeline delays, serialization, host processing — are all
// microsecond-scale, so the hot path degenerates to "append to a nearly
// empty bucket, pop it a few ticks later": O(1) amortized, instead of the
// O(log n) sift of a global heap whose comparisons dominated profiles.
//
// Each bucket (and the overflow) is itself a tiny 4-ary min-heap of entries
// carrying the (time, insertion-order) sort key inline next to the *Event
// pointer, so ordering within a tick never dereferences the events
// themselves, and a pathological workload that piles thousands of events
// into one bucket degrades to exactly the global-heap behavior rather than
// anything quadratic. Fired or reclaimed-cancelled events are recycled
// through a per-engine free list, making steady-state scheduling
// allocation-free.
//
// # Event handle lifetime
//
// Because fired events are recycled, an *Event handle is only meaningful
// until its callback has run (or, for cancelled events, until the engine
// reclaims them). Holding a handle past that point is safe — Fired,
// Cancelled, and Cancel never panic or corrupt the engine, and a handle in
// the free list still reports its final Fired/Cancelled state — but once the
// engine reuses the object for a new event the handle observes the new
// incarnation. Callers that retain handles (e.g. retransmission timers) must
// therefore drop them when the callback runs, as every transport in this
// repository does. Build with `-tags simdebug` to turn any access to a
// recycled handle into a panic with generation diagnostics.
package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Common durations in nanoseconds, for readability at call sites.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a handle to a scheduled callback. It can be cancelled before it
// fires; cancelling an already-fired or already-cancelled event is a no-op.
// See the package comment for the handle-lifetime contract under event
// recycling.
type Event struct {
	at     Time
	fn     func()
	fired  bool
	cancel bool
	pooled bool   // in the engine's free list awaiting reuse
	gen    uint32 // incremented each time the object is recycled (simdebug)
}

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { e.debugAccess("Cancelled"); return e.cancel }

// Fired reports whether the event's callback has run.
func (e *Event) Fired() bool { e.debugAccess("Fired"); return e.fired }

// Time returns the virtual time at which the event fires or fired.
func (e *Event) Time() Time { e.debugAccess("Time"); return e.at }

// heapEntry is one pending-event slot: the (at, ins, seq) sort key stored
// inline so ordering comparisons touch only the containing array, plus the
// event it schedules.
//
// `ins` is the virtual instant the event was inserted at. For events
// scheduled through At/Schedule, seq order already implies ins order (the
// clock never moves backwards between insertions), so the middle field
// changes nothing for them; it exists so AtTagged can file an event as if
// it had been inserted at an earlier instant, which is how the sharded
// runtime makes deferred cross-shard deliveries land in the same relative
// position they would have occupied serially.
//
// `seq` packs a 16-bit ordering tag above a 48-bit insertion counter (see
// AtTagged), so the effective total order is (at, ins, tag, counter).
// Untagged events carry tag 0xFFFF and therefore keep today's pure
// insertion order among themselves while sorting after any tagged event
// that shares their (at, ins).
type heapEntry struct {
	at  Time
	ins Time
	seq uint64
	ev  *Event
}

func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.ins != b.ins {
		return a.ins < b.ins
	}
	return a.seq < b.seq
}

// Timing-wheel geometry. A bucket spans 2^wheelLogW ns (~2 µs), and the
// wheel covers wheelBuckets of them (~524 µs) ahead of the cursor — wide
// enough that switch pipeline (1 µs), serialization (µs-scale), host
// processing (20 µs), and paper-scale RTTs (~90 µs) all schedule within the
// wheel, while RTO and teardown timers (≥10 ms) take the overflow path.
const (
	wheelLogW    = 11
	wheelBuckets = 256
	wheelMask    = wheelBuckets - 1
)

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// The calendar queue. curTick is the wheel cursor: no pending wheel
	// entry has a tick (at >> wheelLogW) below it. An entry whose tick is
	// within wheelBuckets of the cursor lives in buckets[tick & wheelMask];
	// anything further out waits in overflow (a 4-ary min-heap) and is
	// migrated onto the wheel when the cursor approaches (see findMin).
	curTick  int64
	nWheel   int // entries across all buckets, including cancelled ones
	buckets  [wheelBuckets][]heapEntry
	occ      [wheelBuckets / 64]uint64 // bit b set <=> buckets[b] nonempty
	overflow []heapEntry

	free    []*Event // recycled Event objects
	nCancel int      // cancelled events still occupying queue slots
	stopped bool
	// Executed counts events that have run, for diagnostics and tests.
	Executed uint64
}

// compactMin is the pending-event count below which lazy-deleted (cancelled)
// events are never compacted — popping drains small queues quickly anyway.
const compactMin = 64

// bucketCap is each wheel bucket's pre-allocated capacity, sized to hold a
// busy tick's event burst (TCP windows serialize ~2 packets per tick but
// cluster several fabric steps each). The cursor rotates through all buckets
// every lap, so every touched bucket's backing array is long-lived: carving
// them all from one arena up front (256 × 32 × 32 B = 256 KB per engine)
// makes steady-state scheduling allocation-free instead of re-growing cold
// buckets from nil each lap. A bucket that outgrows its slice falls back to
// append's normal reallocation and keeps the larger array.
const bucketCap = 32

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	e := &Engine{overflow: make([]heapEntry, 0, 64)}
	arena := make([]heapEntry, wheelBuckets*bucketCap)
	for i := range e.buckets {
		e.buckets[i] = arena[i*bucketCap : i*bucketCap : (i+1)*bucketCap][:0]
	}
	return e
}

// Reset returns the engine to time zero with nothing pending, keeping what it
// has allocated: the wheel arena, every bucket that outgrew its share of it,
// the overflow array and the event free list. A reset engine is
// indistinguishable from a new one — same snapshots, same pop order for the
// same schedule — so a worker can run its next simulation on it instead of
// paying for a fresh arena.
//
// Whatever was still pending is cancelled and recycled, which ends every
// handle's lifetime: a handle kept across Reset is stale in the sense of the
// package comment (Cancel on it is a no-op; `-tags simdebug` panics).
func (e *Engine) Reset() {
	for i := range e.buckets {
		e.buckets[i] = e.drop(e.buckets[i])
	}
	e.overflow = e.drop(e.overflow)
	e.now, e.seq, e.Executed = 0, 0, 0
	e.curTick, e.nWheel, e.nCancel = 0, 0, 0
	e.occ = [len(e.occ)]uint64{}
	e.stopped = false
}

// drop empties one mini-heap, recycling its events as cancelled.
func (e *Engine) drop(h []heapEntry) []heapEntry {
	for i, en := range h {
		en.ev.cancel = true
		e.release(en.ev)
		h[i] = heapEntry{}
	}
	return h[:0]
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn after delay d (>= 0) of virtual time.
func (e *Engine) Schedule(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.At(e.now+d, fn)
}

// At runs fn at absolute virtual time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) *Event {
	return e.AtTagged(t, e.now, TagNone, fn)
}

// TagNone is the ordering tag of events scheduled through At/Schedule: it
// sorts after every explicit tag, and events carrying it order among
// themselves purely by insertion sequence.
const TagNone uint16 = 0xFFFF

// seqCounterBits is how much of heapEntry.seq holds the insertion counter;
// the 16 bits above it hold the ordering tag.
const seqCounterBits = 48

// AtTagged runs fn at absolute virtual time t, ordered against other events
// due at t by (stamp, tag, insertion sequence): stamp (<= t) is the virtual
// instant the event should be treated as inserted at, and tag is a caller-
// chosen intrinsic priority within that instant. At(t, fn) is
// AtTagged(t, Now(), TagNone, fn).
//
// The tagged form exists for conservative-parallel execution. Events that
// can cross shard boundaries (fabric packet hops) are keyed by stable
// identity — arrival instant, receiving device, input port — instead of by
// the engine-local insertion counter, so their position among same-instant
// rivals is a property of the simulated network, not of which shard
// inserted them first. Serial runs use the identical keys and therefore
// execute in the identical order, which is what makes sharded execution
// bit-identical to serial.
func (e *Engine) AtTagged(t, stamp Time, tag uint16, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule into the past: %d < %d", t, e.now))
	}
	if stamp > t {
		panic(fmt.Sprintf("sim: insertion stamp after due time: %d > %d", stamp, t))
	}
	ev := e.alloc()
	ev.at = t
	ev.fn = fn
	e.push(heapEntry{at: t, ins: stamp, seq: uint64(tag)<<seqCounterBits | e.seq, ev: ev})
	e.seq++
	return ev
}

// push files an entry into its wheel bucket, or into the overflow heap when
// its tick lies beyond the wheel horizon. The cursor moves back when the new
// entry precedes it (possible after Run jumped the clock past pending
// events), preserving the invariant that no wheel entry's tick is below
// curTick.
func (e *Engine) push(en heapEntry) {
	tick := int64(en.at) >> wheelLogW
	if tick < e.curTick {
		e.curTick = tick
	} else if e.nWheel == 0 && len(e.overflow) == 0 {
		// Empty engine: snap the cursor forward so an idle gap does not
		// banish near-future work to the overflow heap.
		e.curTick = tick
	}
	if tick-e.curTick < wheelBuckets {
		i := tick & wheelMask
		entryHeapPush(&e.buckets[i], en)
		e.occ[i>>6] |= 1 << uint(i&63)
		e.nWheel++
	} else {
		entryHeapPush(&e.overflow, en)
	}
}

// nextOcc returns the smallest offset k in [from, wheelBuckets) such that
// bucket (start+k)&wheelMask is nonempty, or -1. The occupancy bitmap makes
// the circular scan O(words) instead of O(buckets) — the difference between
// packet workloads (every bucket busy, scan finds a hit immediately) and
// fluid workloads (a handful of events spread over milliseconds, where the
// old per-bucket lap scan dominated profiles).
func (e *Engine) nextOcc(start, from int64) int64 {
	for from < wheelBuckets {
		j := (start + from) & wheelMask
		w := e.occ[j>>6] >> uint(j&63)
		if w != 0 {
			if k := from + int64(bits.TrailingZeros64(w)); k < wheelBuckets {
				return k
			}
			return -1
		}
		from += 64 - (j & 63) // next bitmap word boundary
	}
	return -1
}

// findMin locates the earliest pending entry and returns the bucket whose
// root it is, positioning the cursor on that bucket's tick. It returns nil
// when nothing is pending. Overflow entries whose tick has come within the
// wheel window are migrated onto the wheel first, so the earliest entry is
// always a bucket root and same-time entries always meet in one bucket,
// where their mini-heap orders them by insertion seq.
func (e *Engine) findMin() *[]heapEntry {
	for {
		if len(e.overflow) > 0 {
			rt := int64(e.overflow[0].at) >> wheelLogW
			if rt < e.curTick || e.nWheel == 0 {
				e.curTick = rt
			}
			for rt-e.curTick < wheelBuckets {
				i := rt & wheelMask
				entryHeapPush(&e.buckets[i], entryHeapPop(&e.overflow))
				e.occ[i>>6] |= 1 << uint(i&63)
				e.nWheel++
				if len(e.overflow) == 0 {
					break
				}
				rt = int64(e.overflow[0].at) >> wheelLogW
			}
		}
		if e.nWheel == 0 {
			return nil
		}
		// Scan one lap from the cursor for a bucket whose root belongs to
		// the scanned position, visiting only occupied buckets via the
		// bitmap. A nonempty bucket whose root tick differs holds only later
		// laps' entries; anything in this lap would sort before such a root,
		// so skipping it cannot lose order.
		start := e.curTick & wheelMask
		for k := e.nextOcc(start, 0); k >= 0; k = e.nextOcc(start, k+1) {
			pos := e.curTick + k
			b := &e.buckets[pos&wheelMask]
			if int64((*b)[0].at)>>wheelLogW == pos {
				e.curTick = pos
				return b
			}
		}
		// No root within one lap: every wheel entry sits beyond the horizon
		// (possible after the cursor moved back). Jump to the earliest root
		// tick — distinct buckets always hold distinct ticks, so comparing
		// ticks alone is unambiguous — unless the overflow root now ties or
		// precedes it, in which case the jump lets the migration loop pull
		// it in first; then rescan.
		best := int64(-1)
		for w := range e.occ {
			for m := e.occ[w]; m != 0; m &= m - 1 {
				i := w<<6 + bits.TrailingZeros64(m)
				if t := int64(e.buckets[i][0].at) >> wheelLogW; best < 0 || t < best {
					best = t
				}
			}
		}
		if len(e.overflow) > 0 {
			if t := int64(e.overflow[0].at) >> wheelLogW; t <= best {
				best = t
			}
		}
		e.curTick = best
	}
}

// popBucket removes and returns b's root entry. b must be the cursor's wheel
// bucket — the one minBucket/findMin returned, with curTick positioned on it
// (findMin never returns the overflow heap: due overflow entries are migrated
// onto the wheel before being popped) — so emptying it clears its bitmap bit.
func (e *Engine) popBucket(b *[]heapEntry) heapEntry {
	e.nWheel--
	en := entryHeapPop(b)
	if len(*b) == 0 {
		i := e.curTick & wheelMask
		e.occ[i>>6] &^= 1 << uint(i&63)
	}
	return en
}

// alloc takes an Event from the free list, or heap-allocates the first time.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.debugAlloc(ev)
		ev.fired = false
		ev.cancel = false
		ev.pooled = false
		return ev
	}
	return &Event{}
}

// release returns a dead event (fired, or cancelled and reclaimed) to the
// free list. The fired/cancel flags are left intact so a stale handle keeps
// reporting its final state until the object is reused.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.pooled = true
	ev.gen++
	e.debugRelease(ev)
	e.free = append(e.free, ev)
}

// Cancel prevents a pending event from firing.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	ev.debugAccess("Cancel")
	if ev.fired || ev.cancel {
		return
	}
	ev.cancel = true
	// The event stays in its queue slot and is skipped when popped: Cancel
	// is O(1). When cancelled events outnumber live ones the queue is
	// compacted in one pass, so cancel-heavy workloads (retransmission
	// timers are re-armed on every ACK) cannot grow it without bound.
	e.nCancel++
	if p := e.Pending(); e.nCancel*2 > p && p >= compactMin {
		e.compact()
	}
}

// compact removes every cancelled event from the wheel and overflow in one
// pass and re-establishes each mini-heap's property. Relative order of live
// events is irrelevant for correctness: the (at, seq) key is a total order,
// so the rebuilt queue pops in exactly the same sequence.
func (e *Engine) compact() {
	e.overflow = e.compactHeap(e.overflow)
	n := 0
	for i := range e.buckets {
		if len(e.buckets[i]) > 0 {
			e.buckets[i] = e.compactHeap(e.buckets[i])
			n += len(e.buckets[i])
		}
		if len(e.buckets[i]) == 0 {
			e.occ[i>>6] &^= 1 << uint(i&63)
		}
	}
	e.nWheel = n
	e.nCancel = 0
}

// compactHeap filters cancelled entries out of one mini-heap in place,
// releasing their events, and re-heapifies the survivors.
func (e *Engine) compactHeap(h []heapEntry) []heapEntry {
	keep := h[:0]
	for _, en := range h {
		if en.ev.cancel {
			e.release(en.ev)
		} else {
			keep = append(keep, en)
		}
	}
	for i := len(keep); i < len(h); i++ {
		h[i] = heapEntry{}
	}
	for i := (len(keep) - 2) >> 2; i >= 0; i-- {
		entrySiftDown(keep, i)
	}
	return keep
}

// minBucket is findMin with its fast path peeled for inlining into the
// Run/Step loops: when the cursor bucket's root is due at the cursor tick
// and the overflow heap holds nothing inside the wheel window, that root is
// the global minimum by the cursor invariant — no scan needed.
func (e *Engine) minBucket() *[]heapEntry {
	b := &e.buckets[e.curTick&wheelMask]
	if len(*b) > 0 && int64((*b)[0].at)>>wheelLogW == e.curTick &&
		(len(e.overflow) == 0 || int64(e.overflow[0].at)>>wheelLogW-e.curTick >= wheelBuckets) {
		return b
	}
	return e.findMin()
}

// Step executes the single next event. It returns false when no runnable
// events remain.
func (e *Engine) Step() bool {
	for {
		b := e.minBucket()
		if b == nil {
			return false
		}
		en := e.popBucket(b)
		ev := en.ev
		if ev.cancel {
			e.nCancel--
			e.release(ev)
			continue
		}
		e.now = en.at
		ev.fired = true
		fn := ev.fn
		fn()
		e.Executed++
		e.release(ev)
		return true
	}
}

// Run executes events until the queue is empty or the virtual clock would
// pass `until`. The clock is left at min(until, time of last event). Events
// scheduled exactly at `until` are executed.
//
// The body is Step with the root peeked before popping (findMin leaves the
// cursor on the due bucket, so the peek is one bucket access), since this
// loop moves every packet of every experiment.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped {
		b := e.minBucket()
		if b == nil {
			break
		}
		ev := (*b)[0].ev
		if ev.cancel {
			e.popBucket(b)
			e.nCancel--
			e.release(ev)
			continue
		}
		if (*b)[0].at > until {
			break
		}
		e.now = (*b)[0].at
		e.popBucket(b)
		ev.fired = true
		fn := ev.fn
		fn()
		e.Executed++
		e.release(ev)
	}
	if e.now < until {
		e.now = until
	}
}

// RunUntilIdle executes every pending event regardless of time.
func (e *Engine) RunUntilIdle() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Stop makes the current Run/RunUntilIdle call return after the event that is
// currently executing.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of scheduled (possibly cancelled) events.
func (e *Engine) Pending() int { return e.nWheel + len(e.overflow) }

// NextAt peeks at the due time of the next runnable event without executing
// it or advancing the clock. Cancelled roots are popped and recycled on the
// way — exactly the events Run would discard next — so the peek stays O(1)
// amortized. The second result is false when no runnable event remains.
func (e *Engine) NextAt() (Time, bool) {
	for {
		b := e.minBucket()
		if b == nil {
			return 0, false
		}
		ev := (*b)[0].ev
		if ev.cancel {
			e.popBucket(b)
			e.nCancel--
			e.release(ev)
			continue
		}
		return (*b)[0].at, true
	}
}

// --- 4-ary min-heap over []heapEntry, ordered by (at, ins, seq) ---
//
// Shared by the overflow heap and every wheel bucket. The sort key is
// duplicated into each entry so sifting never dereferences an *Event: all
// comparisons and moves stay within the containing backing array (four
// words per entry, two entries per 64-byte cache line).

func entryHeapPush(hp *[]heapEntry, en heapEntry) {
	h := append(*hp, en)
	*hp = h
	// Sift up without writing en into each visited slot.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !en.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = en
}

func entryHeapPop(hp *[]heapEntry) heapEntry {
	h := *hp
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = heapEntry{} // drop the *Event reference for GC
	h = h[:n]
	*hp = h
	if n > 0 {
		h[0] = last
		entrySiftDown(h, 0)
	}
	return root
}

func entrySiftDown(h []heapEntry, i int) {
	n := len(h)
	en := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Minimum of up to four children. The running minimum's index is
		// tracked so the scan compares in place and never re-copies entries.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if h[k].less(h[m]) {
				m = k
			}
		}
		if en.less(h[m]) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = en
}
