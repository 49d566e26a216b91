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
// avoids allocation there, touches as few objects as it can, and orders as
// little as it can. Pending events live in a calendar queue: a timing wheel
// of 64 ns ticks for the near future, backed by a single overflow heap for
// events beyond the wheel's horizon (retransmission timers, teardown). Fabric
// events — switch pipeline delays, serialization, host processing — are all
// microsecond-scale, so nearly every event is filed on the wheel, and filing
// is two pointer writes: an Event carries its own sort key and a link, and a
// wheel bucket is the head of an unordered list of the events of one tick.
//
// Order is established late and on few events. When the cursor reaches a
// tick, that bucket's list becomes the due heap, a 4-ary min-heap over
// (time, insertion-order); pooled events cancelled while they waited are
// dropped at that point and never sifted. An event scheduled into the
// cursor's own tick is pushed onto the due heap directly. Buckets are not
// nearly empty — on the all-to-all sweep a 2 µs bucket held 33.7 entries on
// average when it was popped, which is why a tick is 64 ns: the due heap
// there holds 2.3 events on average and 40% of pops find it holding one
// (PERF_LEDGER.md L8) — and a pathological workload that piles thousands of
// events onto one instant degrades to exactly the global-heap behavior
// rather than anything quadratic. Two levels of occupancy bitmap find the
// next busy tick in two TrailingZeros however sparse the schedule, which is
// what a fluid run's handful of events spread over milliseconds needs.
//
// An event is either pooled or embedded. At, Schedule and AtTagged take a
// pooled one: fired or reclaimed-cancelled events are recycled through a
// per-engine free list threaded through the same link, making steady-state
// scheduling allocation-free. An object that never has more than one event
// pending — a packet's next hop step, a port's completion — embeds it
// instead and files it with FileAt; the engine never recycles it, and runs it
// through the object itself as a Handler, so a packet hop touches the packet
// (its event first in it) and nothing else: no pooled event, no closure.
// Either way firing is one interface call — At wraps its func() in a
// Handler, which allocates nothing — and the key, the insertion count and
// the pop order are the same.
//
// # Event handle lifetime
//
// A handle has one of two owners.
//
// The engine owns a pooled event. Because fired events are recycled, an
// *Event handle from At is only meaningful until its callback has run (or,
// for cancelled events, until the engine reclaims them). Holding a handle
// past that point is safe — Fired, Cancelled, and Cancel never panic or
// corrupt the engine, and a handle in the free list still reports its final
// Fired/Cancelled state — but once the engine reuses the object for a new
// event the handle observes the new incarnation. Callers that retain handles
// (e.g. retransmission timers) must therefore drop them when the callback
// runs, as every transport in this repository does. Build with `-tags
// simdebug` to turn any access to a recycled handle into a panic with
// generation diagnostics.
//
// The object that embeds an event owns it: the handle is valid as long as the
// object. Cancel takes an embedded event out of the queue at once rather than
// leaving it to be dropped later, so the owner may file it again straight
// away; it may not file it while it is filed (Filed; `-tags simdebug`
// panics), nor overwrite or recycle the object meanwhile. Reset cancels an
// embedded event that is still filed and leaves it to its owner.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// Handler is what an event runs when it fires.
type Handler interface {
	Fire()
}

// callback is a func() as a Handler. A func value is pointer-shaped, so
// wrapping one allocates nothing.
type callback func()

func (f callback) Fire() { f() }

// Event is a handle to a scheduled callback. It can be cancelled before it
// fires; cancelling an already-fired or already-cancelled event is a no-op.
// See the package comment for the handle-lifetime contract of pooled and
// embedded events.
//
// The event carries its own (at, ins, seq) sort key and the link of the
// wheel bucket it waits on, so filing it costs no memory beyond the object.
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
// Untagged events carry tag 0xFFFF and therefore keep pure insertion order
// among themselves while sorting after any tagged event that shares their
// (at, ins).
type Event struct {
	at       Time
	ins      Time
	seq      uint64
	next     *Event // the rest of the bucket list or of the free list it is on
	h        Handler
	state    evState
	embedded bool   // owned by the object it is part of (FileAt), never recycled
	pooled   bool   // in the engine's free list awaiting reuse
	far      bool   // in the overflow heap
	gen      uint32 // incremented each time the object is recycled (simdebug)
}

// evState is where an event is in its life.
type evState uint8

const (
	evIdle      evState = iota // an embedded event its owner has not filed yet
	evFiled                    // waiting in the queue
	evFired                    // its handler has run, or is running
	evCancelled                // cancelled before it fired; a pooled one may still wait in the queue
)

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { e.debugAccess("Cancelled"); return e.state == evCancelled }

// Fired reports whether the event's callback has run.
func (e *Event) Fired() bool { e.debugAccess("Fired"); return e.state == evFired }

// Filed reports whether the event is waiting to fire: filed, and neither fired
// nor cancelled since.
func (e *Event) Filed() bool { e.debugAccess("Filed"); return e.state == evFiled }

// Time returns the virtual time at which the event fires or fired.
func (e *Event) Time() Time { e.debugAccess("Time"); return e.at }

// before is the engine's total order: (at, ins, seq).
func (a *Event) before(b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.ins != b.ins {
		return a.ins < b.ins
	}
	return a.seq < b.seq
}

// Timing-wheel geometry. A bucket spans 2^wheelLogW ns (64 ns, under one
// MSS serialization time at 10 Gb/s, so a tick holds a couple of events) and
// the wheel covers wheelBuckets of them (~524 µs) ahead of the cursor — wide
// enough that switch pipeline (1 µs), serialization (µs-scale), host
// processing (20 µs), and paper-scale RTTs (~90 µs) all schedule within the
// wheel, while RTO and teardown timers (≥10 ms) take the overflow path.
// PERF_LEDGER.md L8 has the sweep that chose the tick.
const (
	wheelLogW    = 6
	wheelBuckets = 8192
	wheelMask    = wheelBuckets - 1
	occWords     = wheelBuckets / 64
	sumWords     = (occWords + 63) / 64
)

func tickOf(t Time) int64 { return int64(t) >> wheelLogW }

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// The calendar queue. curTick is the wheel cursor: no pending event has
	// a tick (at >> wheelLogW) below it, and the pending events of exactly
	// that tick are the due heap, a 4-ary min-heap and the only place the
	// engine orders anything it is about to run. An event between one and
	// wheelBuckets-1 ticks ahead of the cursor waits on the unordered list
	// buckets[tick & wheelMask] — every tick in that window has a bucket of
	// its own, so a list holds one tick's events and becomes the due heap
	// when the cursor reaches it (see advance). Anything further out waits
	// in overflow, a 4-ary min-heap consulted on every advance.
	curTick  int64
	due      []*Event
	nWheel   int // events on bucket lists, including cancelled ones
	buckets  [wheelBuckets]*Event
	occ      [occWords]uint64 // bit b set <=> buckets[b] != nil
	sum      [sumWords]uint64 // bit w set <=> occ[w] != 0
	overflow []*Event

	free    *Event // recycled Event objects, linked through next
	nCancel int    // cancelled events still in the overflow heap
	// Executed counts events that have run, for diagnostics and tests.
	Executed uint64
}

// compactMin is the overflow size below which lazy-deleted (cancelled)
// timers are never compacted — popping drains a small heap quickly anyway.
const compactMin = 64

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{due: make([]*Event, 0, 16), overflow: make([]*Event, 0, 64)}
}

// Reset returns the engine to time zero with nothing pending, keeping what it
// has allocated: the due and overflow arrays and the event free list. A reset
// engine is indistinguishable from a new one — same snapshots, same pop order
// for the same schedule — so a worker can run its next simulation on it
// instead of growing a free list from nothing.
//
// Whatever was still pending is cancelled. A pooled event is recycled, which
// ends its handle's lifetime: a handle kept across Reset is stale in the
// sense of the package comment (Cancel on it is a no-op; `-tags simdebug`
// panics). An embedded event stays its owner's, cancelled and not filed.
func (e *Engine) Reset() {
	e.eachList(func(i int) {
		for ev := e.take(i); ev != nil; {
			next := ev.next // release relinks the event
			e.drop(ev)
			ev = next
		}
	})
	e.due = e.dropAll(e.due)
	e.overflow = e.dropAll(e.overflow)
	e.now, e.seq, e.Executed = 0, 0, 0
	e.curTick, e.nWheel, e.nCancel = 0, 0, 0
}

// drop takes a pending event out of the engine as cancelled, recycling it
// unless it is embedded.
func (e *Engine) drop(ev *Event) {
	ev.state = evCancelled
	ev.far = false
	if ev.embedded {
		ev.next = nil
		return
	}
	e.release(ev)
}

// dropAll empties one heap, dropping its events.
func (e *Engine) dropAll(h []*Event) []*Event {
	for i, ev := range h {
		e.drop(ev)
		h[i] = nil
	}
	return h[:0]
}

// eachList calls f with the index of every occupied bucket. f may empty the
// bucket it is called for.
func (e *Engine) eachList(f func(i int)) {
	for sw, s := range e.sum {
		for ; s != 0; s &= s - 1 {
			w := sw<<6 + bits.TrailingZeros64(s)
			for m := e.occ[w]; m != 0; m &= m - 1 {
				f(w<<6 + bits.TrailingZeros64(m))
			}
		}
	}
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

// seqCounterBits is how much of Event.seq holds the insertion counter; the
// 16 bits above it hold the ordering tag.
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
	ev := e.alloc()
	e.file(ev, t, stamp, tag, callback(fn))
	return ev
}

// FileAt files ev, an event embedded in the object that owns it, to run h at
// t. It orders and counts exactly as AtTagged(t, stamp, tag, h.Fire) would,
// so the pop order, Executed and Snapshot are the same either way; but the
// engine never recycles ev, and Cancel takes it out of the queue at once.
// The owner must not file ev while it is filed (Filed).
func (e *Engine) FileAt(ev *Event, t, stamp Time, tag uint16, h Handler) {
	ev.debugAccess("FileAt")
	if Debug && ev.state == evFiled {
		panic(fmt.Sprintf("sim: embedded event filed at %d while it is filed at %d: its owner has two pending events", t, ev.at))
	}
	ev.embedded = true
	e.file(ev, t, stamp, tag, h)
}

// file gives ev its key — drawing the next insertion count — and its handler,
// and files it: onto its tick's bucket list (two pointer writes and two
// bitmap bits, nearly every event of a packet run), into the due heap when it
// lands in the cursor's own tick, or into the overflow heap when its tick
// lies beyond the wheel horizon.
func (e *Engine) file(ev *Event, t, stamp Time, tag uint16, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule into the past: %d < %d", t, e.now))
	}
	if stamp > t {
		panic(fmt.Sprintf("sim: insertion stamp after due time: %d > %d", stamp, t))
	}
	ev.at, ev.ins, ev.seq, ev.h, ev.state = t, stamp, uint64(tag)<<seqCounterBits|e.seq, h, evFiled
	e.seq++
	tick := tickOf(t)
	switch d := tick - e.curTick; {
	case uint64(d-1) < wheelBuckets-1: // 0 < d < wheelBuckets
		e.link(ev, tick)
	case d == 0:
		heapPush(&e.due, ev)
	case d < 0:
		// Possible once a peek has taken the cursor to the next pending
		// event while the clock stays short of it (Run(until), NextAt).
		e.moveBack(tick)
		heapPush(&e.due, ev)
	case e.Pending() == 0:
		// Empty engine: snap the cursor forward so an idle gap does not
		// banish near-future work to the overflow heap.
		e.curTick = tick
		heapPush(&e.due, ev)
	default:
		e.pushFar(ev)
	}
}

// pushFar files ev, due beyond the wheel's horizon, in the overflow heap.
func (e *Engine) pushFar(ev *Event) {
	ev.far = true
	heapPush(&e.overflow, ev)
}

// link puts ev, whose tick is inside the wheel window and not the cursor's,
// at the head of its bucket list.
func (e *Engine) link(ev *Event, tick int64) {
	i := tick & wheelMask
	ev.next = e.buckets[i]
	e.buckets[i] = ev
	e.occ[i>>6] |= 1 << uint(i&63)
	e.sum[i>>12] |= 1 << uint(i>>6&63)
	e.nWheel++
}

// take empties bucket i and returns the list it held, which the caller
// takes off nWheel as it walks it.
func (e *Engine) take(i int) *Event {
	head := e.buckets[i]
	e.buckets[i] = nil
	e.vacate(i)
	return head
}

// vacate clears the occupancy bits of bucket i, which is now empty.
func (e *Engine) vacate(i int) {
	w := i >> 6
	if e.occ[w] &^= 1 << uint(i&63); e.occ[w] == 0 {
		e.sum[w>>6] &^= 1 << uint(w&63)
	}
}

// unlink takes ev off the list of bucket tick & wheelMask, where it waits.
func (e *Engine) unlink(ev *Event, tick int64) {
	i := int(tick & wheelMask)
	p := &e.buckets[i]
	for *p != ev {
		p = &(*p).next
	}
	*p = ev.next
	ev.next = nil
	e.nWheel--
	if e.buckets[i] == nil {
		e.vacate(i)
	}
}

// nextOcc returns how many buckets past index p the first occupied bucket
// lies, scanning circularly; the wheel must not be empty. The word p sits in
// answers for a packet run, where most ticks are busy; the summary finds the
// word for a fluid run's handful of events spread over milliseconds, so the
// sparse case costs two TrailingZeros, not a walk over occWords.
func (e *Engine) nextOcc(p int64) int64 {
	if m := e.occ[p>>6] >> uint(p&63); m != 0 {
		return int64(bits.TrailingZeros64(m))
	}
	// The next nonzero word after p's, p's own coming last: only its bits
	// below p can be set, and those are the far end of the lap.
	from := (p>>6 + 1) % occWords
	s := from >> 6
	m := e.sum[s] &^ (1<<uint(from&63) - 1)
	for n := 0; m == 0; n++ {
		if n == sumWords {
			panic("sim: wheel count and occupancy bitmap disagree")
		}
		s = (s + 1) % sumWords
		m = e.sum[s]
	}
	w := s<<6 + int64(bits.TrailingZeros64(m))
	return (w<<6 + int64(bits.TrailingZeros64(e.occ[w])) - p) & wheelMask
}

// advance moves the cursor to the earliest tick that holds pending events
// and makes them the due heap, which must be empty. Events cancelled while
// they waited are dropped here and never sifted. It returns false when
// nothing is pending.
func (e *Engine) advance() bool {
	for len(e.due) == 0 {
		tick := int64(math.MaxInt64)
		if e.nWheel > 0 {
			tick = e.curTick + 1 + e.nextOcc((e.curTick+1)&wheelMask)
		}
		if len(e.overflow) > 0 {
			if t := tickOf(e.overflow[0].at); t < tick {
				tick = t
			}
		} else if e.nWheel == 0 {
			return false
		}
		// Every list is later than tick and within wheelBuckets of the old
		// cursor, so the jump keeps all of them inside the window.
		e.curTick = tick
		if i := int(tick & wheelMask); e.buckets[i] != nil {
			for ev := e.take(i); ev != nil; {
				next := ev.next
				e.nWheel--
				if ev.state == evCancelled {
					e.release(ev)
				} else {
					e.due = append(e.due, ev)
				}
				ev = next
			}
			heapify(e.due)
		}
		for len(e.overflow) > 0 && tickOf(e.overflow[0].at) == tick {
			ev := heapPop(&e.overflow)
			ev.far = false
			if ev.state == evCancelled {
				e.nCancel--
				e.release(ev)
			} else {
				heapPush(&e.due, ev)
			}
		}
	}
	return true
}

// moveBack takes the cursor back to tick, which a new event is about to
// occupy. The due events return to the wheel as ordinary pending events of
// the tick the cursor leaves, and the lists the shorter horizon no longer
// covers — ticks in [tick+wheelBuckets, old+wheelBuckets), which wait in
// the buckets the cursor moves back over — are evicted to the overflow
// heap, so that a list still never mixes two laps' ticks.
func (e *Engine) moveBack(tick int64) {
	n := e.curTick - tick
	if n > wheelBuckets {
		n = wheelBuckets
	}
	e.curTick = tick
	for k := int64(0); e.nWheel > 0; k++ {
		// nextOcc scans circularly: a hit behind tick+k reads as a step of
		// nearly a lap, which also ends the loop.
		if k += e.nextOcc((tick + k) & wheelMask); k >= n {
			break
		}
		for ev := e.take(int((tick + k) & wheelMask)); ev != nil; {
			next := ev.next
			e.nWheel--
			e.refile(ev)
			ev = next
		}
	}
	for i, ev := range e.due {
		e.due[i] = nil
		e.refile(ev)
	}
	e.due = e.due[:0]
}

// refile files an event moveBack took off a list or out of the due heap,
// which is therefore later than the cursor's tick.
func (e *Engine) refile(ev *Event) {
	switch tick := tickOf(ev.at); {
	case ev.state == evCancelled:
		e.release(ev)
	case tick-e.curTick < wheelBuckets:
		e.link(ev, tick)
	default:
		e.pushFar(ev)
	}
}

// alloc takes an Event from the free list, or heap-allocates the first time.
func (e *Engine) alloc() *Event {
	ev := e.free
	if ev == nil {
		return &Event{}
	}
	e.free = ev.next
	e.debugAlloc(ev)
	ev.pooled = false
	return ev
}

// release returns a dead pooled event (fired, or cancelled and reclaimed) to
// the free list. The state is left intact so a stale handle keeps reporting
// it until the object is reused.
func (e *Engine) release(ev *Event) {
	ev.h = nil
	ev.pooled = true
	ev.gen++
	e.debugRelease(ev)
	ev.next = e.free
	e.free = ev
}

// Cancel prevents a pending event from firing. An embedded event leaves the
// queue at once, so that its owner may file it again.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	ev.debugAccess("Cancel")
	if !ev.Filed() {
		return
	}
	ev.state = evCancelled
	if ev.embedded {
		e.unfile(ev)
		return
	}
	// A pooled event stays where it is filed and is dropped when the cursor
	// reaches it: Cancel is O(1). On the wheel that is at most one horizon
	// away. The overflow heap is where cancelled events would pile up —
	// retransmission timers are re-armed on every ACK and fire tens of
	// milliseconds out — so it is compacted in one pass whenever they
	// outnumber its live ones.
	if ev.far {
		e.nCancel++
		if n := len(e.overflow); e.nCancel*2 > n && n >= compactMin {
			e.compact()
		}
	}
}

// unfile takes a cancelled embedded event out of the queue, so that its owner
// may file it again at once. A bucket list is walked to it. The due heap
// holds a couple of events (the package comment), and a hop reaches the
// overflow heap only past the wheel's horizon, so a scan finds it there; the
// heap's last event takes its slot and sifts whichever way it must.
func (e *Engine) unfile(ev *Event) {
	tick := tickOf(ev.at)
	if !ev.far && tick != e.curTick {
		e.unlink(ev, tick)
		return
	}
	hp := &e.due
	if ev.far {
		ev.far = false
		hp = &e.overflow
	}
	h := *hp
	i, n := slices.Index(h, ev), len(h)-1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*hp = h
	if i == n {
		return
	}
	h[i] = last
	if i > 0 && last.before(h[(i-1)>>2]) {
		siftUp(h, i)
	} else {
		siftDown(h, i)
	}
}

// compact removes every cancelled event from the overflow heap in one pass
// and re-establishes the heap property. Relative order of live events is
// irrelevant for correctness: the (at, ins, seq) key is a total order, so
// the rebuilt heap pops in exactly the same sequence.
func (e *Engine) compact() {
	h := e.overflow
	keep := h[:0]
	for _, ev := range h {
		if ev.state == evCancelled {
			ev.far = false
			e.release(ev)
		} else {
			keep = append(keep, ev)
		}
	}
	for i := len(keep); i < len(h); i++ {
		h[i] = nil
	}
	heapify(keep)
	e.overflow = keep
	e.nCancel = 0
}

// peek returns the earliest live pending event, which it leaves at the root
// of the due heap, or nil when none remains. Cancelled roots are popped and
// recycled on the way. The first line is all a busy tick needs and inlines
// into the Run/Step loops.
func (e *Engine) peek() *Event {
	if len(e.due) > 0 && e.due[0].state == evFiled {
		return e.due[0]
	}
	return e.peekSlow()
}

func (e *Engine) peekSlow() *Event {
	for len(e.due) > 0 || e.advance() {
		ev := e.due[0]
		if ev.state == evFiled {
			return ev
		}
		heapPop(&e.due)
		e.release(ev)
	}
	return nil
}

// fire runs ev, the live root of the due heap. An embedded event belongs to
// its owner from the moment it leaves the heap — the handler may file it
// again, or recycle the owner — so the engine reads what it needs first.
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	heapPop(&e.due)
	ev.state = evFired
	h, pooled := ev.h, !ev.embedded
	h.Fire()
	e.Executed++
	if pooled {
		e.release(ev)
	}
}

// Step executes the single next event. It returns false when no runnable
// events remain.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run executes events until the queue is empty or the virtual clock would
// pass `until`, and then leaves the clock at `until`. Events scheduled
// exactly at `until` are executed.
func (e *Engine) Run(until Time) {
	for {
		ev := e.peek()
		if ev == nil || ev.at > until {
			break
		}
		e.fire(ev)
	}
	if e.now < until {
		e.now = until
	}
}

// RunUntilIdle executes every pending event regardless of time.
func (e *Engine) RunUntilIdle() {
	for e.Step() {
	}
}

// Pending returns the number of scheduled (possibly cancelled) events.
func (e *Engine) Pending() int { return e.nWheel + len(e.due) + len(e.overflow) }

// NextAt peeks at the due time of the next runnable event without executing
// it or advancing the clock. Cancelled events ahead of it are recycled on
// the way — exactly the events Run would discard next — so the peek stays
// O(1) amortized. The second result is false when no runnable event remains.
func (e *Engine) NextAt() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// --- 4-ary min-heap over []*Event, ordered by (at, ins, seq) ---
//
// Shared by the due heap and the overflow heap.

func heapPush(hp *[]*Event, ev *Event) {
	h := append(*hp, ev)
	*hp = h
	siftUp(h, len(h)-1)
}

// siftUp moves h[i] toward the root to its place, without writing it into
// each visited slot.
func siftUp(h []*Event, i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// heapify orders h, whatever order it was in.
func heapify(h []*Event) {
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		siftDown(h, i)
	}
}

func heapPop(hp *[]*Event) *Event {
	h := *hp
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil // drop the *Event reference for GC
	h = h[:n]
	*hp = h
	if n > 0 {
		h[0] = last
		if n > 1 {
			siftDown(h, 0)
		}
	}
	return root
}

func siftDown(h []*Event, i int) {
	n := len(h)
	ev := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Minimum of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if h[k].before(h[m]) {
				m = k
			}
		}
		if ev.before(h[m]) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}
