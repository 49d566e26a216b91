package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// This file model-checks the production engine (bucket lists on a timing
// wheel, one due heap, an overflow heap, lazy cancellation of pooled events
// and eager cancellation of embedded ones, free-list recycling) against an
// obviously-correct reference: an unsorted slice scanned for the (at, ins,
// tag, counter) minimum, with Cancel as immediate removal. Random operation
// sequences — Schedule, AtTagged, FileAt, Cancel, Run, Step, and a handler
// that files its own event again — must produce identical firing order,
// identical clocks, and identical executed counts. Every sequence runs twice,
// once with every event pooled and once with some of them embedded in owner
// objects, and the two runs must agree op by op. testing/quick drives short
// random sequences on every `go test`; FuzzEngine (fuzz_test.go) reuses the
// same interpreter for coverage-guided exploration with a checked-in corpus.

// refEvent is one pending event in the reference model. A chained event's
// handler files one more event, hop after the instant it fires.
type refEvent struct {
	at, ins Time
	tag     uint16
	counter uint64
	id      int
	chain   bool
	hop     Time
}

// refModel is the executable specification: (due time, insertion stamp, tag,
// insertion counter) total order, cancel-by-removal, clock advanced to each
// fired event.
type refModel struct {
	now     Time
	counter uint64
	evs     []refEvent
	order   []int
}

func (m *refModel) schedule(at, stamp Time, tag uint16, id int, chain bool, hop Time) {
	m.evs = append(m.evs, refEvent{at: at, ins: stamp, tag: tag, counter: m.counter, id: id, chain: chain, hop: hop})
	m.counter++
}

// chainID is the id of the event that event id's handler files.
func chainID(id int) int { return -id - 1 }

func (m *refModel) cancel(id int) {
	for i := range m.evs {
		if m.evs[i].id == id {
			m.evs = append(m.evs[:i], m.evs[i+1:]...)
			return
		}
	}
}

func (a refEvent) before(b refEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.ins != b.ins:
		return a.ins < b.ins
	case a.tag != b.tag:
		return a.tag < b.tag
	}
	return a.counter < b.counter
}

func (m *refModel) min() int {
	best := 0
	for i := 1; i < len(m.evs); i++ {
		if m.evs[i].before(m.evs[best]) {
			best = i
		}
	}
	return best
}

func (m *refModel) step() bool {
	if len(m.evs) == 0 {
		return false
	}
	i := m.min()
	ev := m.evs[i]
	m.evs = append(m.evs[:i], m.evs[i+1:]...)
	m.now = ev.at
	m.order = append(m.order, ev.id)
	if ev.chain {
		m.schedule(m.now+ev.hop, m.now, TagNone, chainID(ev.id), false, 0)
	}
	return true
}

func (m *refModel) run(until Time) {
	for len(m.evs) > 0 && m.evs[m.min()].at <= until {
		m.step()
	}
	if m.now < until {
		m.now = until
	}
}

// The wheel's landmarks, which the interpreter aims its delays at.
const (
	modelTick    = Time(1) << wheelLogW
	modelSumWord = 64 * 64 * modelTick // the ticks one summary bit stands for
	modelHorizon = wheelBuckets * modelTick
)

// queued checks the state of an event found in the queue: filed, or a pooled
// one cancelled while it waited — an embedded one leaves at once.
func queued(ev *Event) error {
	if ev.pooled || ev.state != evFiled && (ev.embedded || ev.state != evCancelled) {
		return fmt.Errorf("queue holds an event in state %d (embedded=%v pooled=%v)", ev.state, ev.embedded, ev.pooled)
	}
	return nil
}

// checkQueue verifies what the calendar queue's code relies on between
// operations: a bucket list holds the events of one tick, its own, inside the
// wheel window; the due heap holds the cursor's tick; nothing pending is
// earlier than the cursor; the bitmaps and the counters are exact; what waits
// is filed or a cancelled pooled event; the free list holds pooled events
// only.
func checkQueue(e *Engine) error {
	nWheel := 0
	for i := range e.buckets {
		for ev := e.buckets[i]; ev != nil; ev = ev.next {
			nWheel++
			if t := tickOf(ev.at); t&wheelMask != int64(i) || t <= e.curTick || t-e.curTick >= wheelBuckets {
				return fmt.Errorf("bucket %d holds tick %d with the cursor at %d", i, t, e.curTick)
			}
			if ev.far {
				return fmt.Errorf("bucket %d holds an event marked far", i)
			}
			if err := queued(ev); err != nil {
				return fmt.Errorf("bucket %d: %v", i, err)
			}
		}
		if occ := e.occ[i>>6]>>uint(i&63)&1 == 1; occ != (e.buckets[i] != nil) {
			return fmt.Errorf("bucket %d: occupancy bit %v, list empty %v", i, occ, e.buckets[i] == nil)
		}
	}
	for w := range e.occ {
		if sum := e.sum[w>>6]>>uint(w&63)&1 == 1; sum != (e.occ[w] != 0) {
			return fmt.Errorf("occupancy word %d is %#x, summary bit %v", w, e.occ[w], sum)
		}
	}
	if nWheel != e.nWheel {
		return fmt.Errorf("nWheel = %d, lists hold %d", e.nWheel, nWheel)
	}
	for _, ev := range e.due {
		if t := tickOf(ev.at); t != e.curTick || ev.far {
			return fmt.Errorf("due heap holds tick %d (far=%v) with the cursor at %d", t, ev.far, e.curTick)
		}
		if err := queued(ev); err != nil {
			return fmt.Errorf("due heap: %v", err)
		}
	}
	nCancel := 0
	for _, ev := range e.overflow {
		if t := tickOf(ev.at); t <= e.curTick || !ev.far {
			return fmt.Errorf("overflow heap holds tick %d (far=%v) with the cursor at %d", t, ev.far, e.curTick)
		}
		if err := queued(ev); err != nil {
			return fmt.Errorf("overflow heap: %v", err)
		}
		if ev.state == evCancelled {
			nCancel++
		}
	}
	if nCancel != e.nCancel {
		return fmt.Errorf("nCancel = %d, overflow holds %d cancelled", e.nCancel, nCancel)
	}
	for ev := e.free; ev != nil; ev = ev.next {
		if ev.embedded || !ev.pooled {
			return fmt.Errorf("free list holds an event with embedded=%v pooled=%v", ev.embedded, ev.pooled)
		}
	}
	for _, h := range [][]*Event{e.due, e.overflow} {
		for i := 1; i < len(h); i++ {
			if h[i].before(h[(i-1)>>2]) {
				return fmt.Errorf("heap order broken at %d of %d", i, len(h))
			}
		}
	}
	return nil
}

// modelRun is what one interpreted sequence left behind on the real engine:
// the firing order, the engine's snapshot after every operation, the owners
// of embedded events, and what the sequence reached.
type modelRun struct {
	order  []int
	trace  []EngineState
	owners []*owner
	reach  modelReach
}

// modelReach counts the paths of embedded events a sequence took, for the
// directed sequences' power check.
type modelReach struct {
	cancelDue, cancelWheel, cancelFar int
	cancelMoved                       int // of those, events that had waited through a moveBack
	refiled                           int // a cancelled event filed again by its owner at the next op
	chained                           int // events filed again from inside their own handler
	resetPending                      int // embedded events still filed when the engine was Reset
}

func (r *modelReach) add(o modelReach) {
	r.cancelDue += o.cancelDue
	r.cancelWheel += o.cancelWheel
	r.cancelFar += o.cancelFar
	r.cancelMoved += o.cancelMoved
	r.refiled += o.refiled
	r.chained += o.chained
	r.resetPending += o.resetPending
}

// owner is an object that embeds its event, as a packet or a port does, and
// is its handler.
type owner struct {
	ev   Event
	fire func()
}

func (o *owner) Fire() { o.fire() }

// runEngineModel interprets data twice: with every event pooled, and with the
// events the sequence marks embedded in owners. The two must agree op by op —
// firing order, clock, insertion count, executed and live pending events,
// queue digest. Each is then interpreted again on an engine recycled from a
// run of the reversed sequence — abandoned mid-flight with whatever it had
// pending, cancelled and in the overflow heap, embedded events included —
// which must match the new engine step for step.
func runEngineModel(data []byte) (modelReach, error) {
	var twins [2]modelRun
	var reach modelReach
	for k, embed := range []bool{false, true} {
		mode := "pooled"
		if embed {
			mode = "embedded"
		}
		fresh, err := interpretModel(NewEngine(), data, true, embed)
		if err != nil {
			return reach, fmt.Errorf("%s: %v", mode, err)
		}
		prior := make([]byte, len(data))
		for i, b := range data {
			prior[len(data)-1-i] = b
		}
		eng := NewEngine()
		before, err := interpretModel(eng, prior, false, embed)
		if err != nil {
			return reach, fmt.Errorf("%s: prior run: %v", mode, err)
		}
		eng.Reset()
		for _, o := range before.owners {
			if o.ev.Filed() {
				return reach, fmt.Errorf("%s: an embedded event still filed after Reset", mode)
			}
		}
		recycled, err := interpretModel(eng, data, true, embed)
		if err != nil {
			return reach, fmt.Errorf("%s: on a recycled engine: %v", mode, err)
		}
		if err := fresh.diff(recycled, mode+" on a recycled engine", "on a new one"); err != nil {
			return reach, err
		}
		twins[k] = fresh
		reach.add(fresh.reach)
		reach.resetPending += before.reach.resetPending
	}
	return reach, twins[0].diff(twins[1], "embedded", "pooled")
}

// diff reports the first step at which run b, described by what, left run a,
// described by against.
func (a modelRun) diff(b modelRun, what, against string) error {
	if len(a.trace) != len(b.trace) || len(a.order) != len(b.order) {
		return fmt.Errorf("%s: %d steps and %d firings, %s %d and %d",
			what, len(b.trace), len(b.order), against, len(a.trace), len(a.order))
	}
	for k := range a.trace {
		if a.trace[k] != b.trace[k] {
			return fmt.Errorf("%s diverges at step %d: %+v, %s %+v", what, k, b.trace[k], against, a.trace[k])
		}
	}
	for k := range a.order {
		if a.order[k] != b.order[k] {
			return fmt.Errorf("%s pops id %d at position %d, %s id %d", what, b.order[k], k, against, a.order[k])
		}
	}
	return nil
}

// interpretModel interprets data as an operation sequence over both eng (at
// time zero, nothing pending) and the reference model and returns an error on
// any divergence. With drain false it stops after the last operation, leaving
// the engine however the sequence left it. With embed, the events a schedule
// op marks are embedded in owners (FileAt), which go back on a stack when
// their event fires or is cancelled, so the next embedded event reuses the
// owner freed last; a chained handler files its own owner's event again, as a
// packet's hop does. The interpreter respects the handle-lifetime contract: a
// handle is only cancelled while its callback has not run (the `done` flag is
// set by the callback itself, exactly how transports drop their timer
// handles).
func interpretModel(eng *Engine, data []byte, drain, embed bool) (modelRun, error) {
	ref := &refModel{}
	var got []int
	var trace []EngineState
	var reach modelReach

	type handle struct {
		ev    *Event
		id    int
		done  bool
		owner *owner // nil for a pooled event
		moved bool   // waited through a moveBack
	}
	var live []*handle
	nextID := 0

	var owners, free []*owner
	var cancelled, justCancelled *owner // by this op, by the one before
	take := func() *owner {
		if n := len(free); n > 0 {
			o := free[n-1]
			free = free[:n-1]
			if o == justCancelled {
				reach.refiled++
			}
			return o
		}
		o := &owner{}
		owners = append(owners, o)
		return o
	}
	// file schedules event id on both the engine and nothing else (the
	// reference files its own): embedded in o — or in a free owner when o is
	// nil — when embedded is set on the embedding run, pooled otherwise.
	var file func(o *owner, embedded bool, at, stamp Time, tag uint16, id int, chain bool, hop Time)
	file = func(o *owner, embedded bool, at, stamp Time, tag uint16, id int, chain bool, hop Time) {
		h := &handle{id: id}
		fired := func() {
			got = append(got, id)
			h.done = true
			switch {
			case chain:
				reach.chained++
				now := eng.Now()
				file(h.owner, embedded, now+hop, now, TagNone, chainID(id), false, 0)
			case h.owner != nil:
				free = append(free, h.owner)
			}
		}
		if embedded && embed {
			if o == nil {
				o = take()
			}
			h.owner, h.ev = o, &o.ev
			o.fire = fired
			eng.FileAt(&o.ev, at, stamp, tag, o)
		} else {
			h.ev = eng.AtTagged(at, stamp, tag, fired)
		}
		live = append(live, h)
	}

	i := 0
	nextByte := func() (byte, bool) {
		if i >= len(data) {
			return 0, false
		}
		b := data[i]
		i++
		return b, true
	}

	for {
		op, ok := nextByte()
		if !ok {
			break
		}
		justCancelled, cancelled = cancelled, nil
		trace = append(trace, eng.Snapshot())
		if err := checkQueue(eng); err != nil {
			return modelRun{}, fmt.Errorf("before op %d: %v", i, err)
		}
		switch op % 8 {
		case 0, 1, 2, 3: // schedule (half of all ops)
			db, _ := nextByte()
			// Delay regimes cut to the wheel's landmarks, so every way an
			// event can be filed and found again is exercised: the cursor's
			// own tick (the due heap, same-time ties), neighbouring ticks
			// (bucket lists), about one summary word out (the sparse scan),
			// the horizon give or take a tick (the last bucket against the
			// overflow heap), and several laps out (migration, cursor wrap).
			at, stamp, tag := eng.Now(), eng.Now(), TagNone
			switch {
			case op%8 == 1:
				// The fabric's form: a stamp in the past and, half the time,
				// a real tag, on a due time close enough for ties.
				at += Time(db&7) * (modelTick / 2)
				if back := Time(db>>3&3) * 37; back <= stamp {
					stamp -= back
				}
				if db&0x80 == 0 {
					tag = uint16(db >> 5 & 3)
				}
			case op%8 == 2:
				at += Time(db) * 17 // 0 .. ~4.3 µs, tens of ticks
			case op%8 == 3 && db < 0x40:
				at += modelSumWord + (Time(db)-32)*modelTick
			case op%8 == 3 && db < 0x80:
				at += modelHorizon + (Time(db&7)-4)*(modelTick/2)
			case op%8 == 3:
				at += Time(db&0x7f) * 20011 // 0 .. ~2.5 ms, up to 4 laps out
			default:
				at += Time(db % 32)
			}
			// Bit 3 marks the event embedded (on the embedding run), bit 4
			// makes its handler file one more, hop after it fires.
			embedded, chain, hop := op&0x08 != 0, op&0x10 != 0, Time(op>>5)*(modelTick/2)
			id := nextID
			nextID++
			cursor := eng.curTick
			file(nil, embedded, at, stamp, tag, id, chain, hop)
			if eng.curTick < cursor { // moveBack
				for _, h := range live {
					h.moved = h.moved || !h.done
				}
			}
			ref.schedule(at, stamp, tag, id, chain, hop)
		case 4, 5: // cancel one contract-live handle
			jb, _ := nextByte()
			var cands []*handle
			for _, h := range live {
				if !h.done {
					cands = append(cands, h)
				}
			}
			if len(cands) == 0 {
				continue
			}
			h := cands[int(jb)%len(cands)]
			if o := h.owner; o != nil {
				switch {
				case o.ev.far:
					reach.cancelFar++
				case tickOf(o.ev.at) == eng.curTick:
					reach.cancelDue++
				default:
					reach.cancelWheel++
				}
				if h.moved {
					reach.cancelMoved++
				}
			}
			// Note: after Cancel a pooled handle must be treated as dropped —
			// the engine may compact immediately and recycle the object, so
			// even reading h.ev.Cancelled() here would violate the lifetime
			// contract (and panic under simdebug). An owner may file its
			// event again at once.
			eng.Cancel(h.ev)
			h.done = true
			if h.owner != nil {
				free = append(free, h.owner)
				cancelled = h.owner
			}
			ref.cancel(h.id)
		case 6: // run a bounded window: inside a tick, a few ticks, or laps
			db, _ := nextByte()
			w := Time(db % 64)
			switch {
			case db >= 128:
				w = Time(db) * 16384 // up to ~4 ms: jump the clock across laps
			case db >= 64:
				w = Time(db-64) * 129 // up to ~8 µs
			}
			until := eng.Now() + w
			eng.Run(until)
			ref.run(until)
			if eng.Now() != ref.now {
				return modelRun{}, fmt.Errorf("op %d: Run(%d): clock %d, reference %d", i, until, eng.Now(), ref.now)
			}
		case 7: // single steps
			nb, _ := nextByte()
			for k := 0; k <= int(nb%4); k++ {
				a := eng.Step()
				b := ref.step()
				if a != b {
					return modelRun{}, fmt.Errorf("op %d: Step() = %v, reference %v", i, a, b)
				}
				if a && eng.Now() != ref.now {
					return modelRun{}, fmt.Errorf("op %d: Step clock %d, reference %d", i, eng.Now(), ref.now)
				}
			}
		}
	}

	trace = append(trace, eng.Snapshot())
	if err := checkQueue(eng); err != nil {
		return modelRun{}, fmt.Errorf("after the last op: %v", err)
	}
	if !drain {
		for _, o := range owners {
			if o.ev.Filed() {
				reach.resetPending++
			}
		}
		return modelRun{order: got, trace: trace, owners: owners, reach: reach}, nil
	}
	eng.RunUntilIdle()
	for ref.step() {
	}

	if len(got) != len(ref.order) {
		return modelRun{}, fmt.Errorf("fired %d events, reference fired %d", len(got), len(ref.order))
	}
	for k := range got {
		if got[k] != ref.order[k] {
			return modelRun{}, fmt.Errorf("firing order diverges at %d: got id %d, reference id %d (got %v, want %v)",
				k, got[k], ref.order[k], got, ref.order)
		}
	}
	if eng.Now() != ref.now {
		return modelRun{}, fmt.Errorf("final clock %d, reference %d", eng.Now(), ref.now)
	}
	if eng.Executed != uint64(len(got)) {
		return modelRun{}, fmt.Errorf("Executed = %d, fired %d", eng.Executed, len(got))
	}
	if eng.Pending() != 0 {
		return modelRun{}, fmt.Errorf("Pending = %d after drain", eng.Pending())
	}
	return modelRun{order: got, trace: append(trace, eng.Snapshot()), owners: owners, reach: reach}, nil
}

func TestEngineModelQuick(t *testing.T) {
	f := func(data []byte) bool {
		if _, err := runEngineModel(data); err != nil {
			t.Logf("sequence %q: %v", data, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Directed sequences for paths random bytes rarely line up: cancel storms,
// interleaved run/step, heavy same-time ties, and the calendar queue's
// edges. FuzzEngine seeds its corpus with them.
var directedSeqs = [][]byte{
	{},
	{0, 0, 0, 0, 0, 0, 7, 3},
	{0, 5, 1, 5, 2, 5, 3, 5, 4, 0, 4, 1, 6, 63},
	{0, 0, 4, 0, 0, 0, 4, 0, 6, 10, 0, 0, 4, 1, 7, 2},
	{3, 31, 2, 31, 1, 31, 0, 31, 5, 2, 5, 1, 5, 0, 6, 63, 6, 63},
	// Far event beyond the horizon, then drain: overflow migration.
	{3, 255, 7, 3},
	// Far event; a bounded run leaves it pending with the cursor on it;
	// then near events land behind the cursor and must still fire first.
	{3, 255, 6, 150, 0, 5, 0, 5, 7, 3},
	// Mixed laps: near, a summary word out, four laps out, interleaved with
	// cancels and a multi-lap run window.
	{0, 9, 3, 40, 3, 255, 2, 200, 4, 1, 6, 255, 7, 3},
	// Idle gap then reschedule: cursor snaps forward on an empty engine.
	{0, 5, 7, 0, 3, 130, 7, 0, 0, 5, 7, 3},
	// Same due time, stamps and tags in every order against plain events.
	{6, 100, 1, 0x00, 1, 0x88, 1, 0x28, 0, 0, 1, 0x48, 1, 0x08, 1, 0x80, 6, 10, 1, 0x10, 1, 0x30, 0, 0, 7, 3, 7, 3},
	// Move-back with eviction. An event a summary word out; a 10 ns run
	// leaves the cursor on it; one more just past the horizon as the clock
	// sees it is within the wheel as the cursor sees it, so it is linked;
	// then a near event takes the cursor back to the clock and the far one
	// no longer fits under the shortened horizon.
	{3, 32, 6, 10, 3, 0x46, 3, 0x43, 0, 5, 2, 100, 4, 1, 7, 3},
	// The same with the cursor a whole lap ahead: everything is evicted,
	// the due heap included, bar the event cancelled while it was due.
	{3, 0xff, 3, 0xfe, 3, 0xfe, 6, 10, 4, 1, 2, 9, 2, 200, 3, 0x44, 0, 1, 7, 3},
	// A cancelled event dropped when its bucket becomes the due heap, next
	// to a live one of the same tick.
	{2, 20, 2, 20, 2, 21, 4, 0, 7, 0, 7, 3},
	// A bucket holding nothing but cancelled events: the cursor passes
	// through it to the next one.
	{2, 20, 2, 21, 4, 0, 4, 0, 2, 90, 7, 0, 3, 0x44, 4, 0, 3, 0xc1, 7, 3},

	// Embedded events (schedule ops with bit 3 set; bit 4 chains, bits 5-7
	// are the hop). Three in the cursor's tick, the middle one cancelled out
	// of the due heap and its owner filed again at once.
	{8, 0, 8, 1, 8, 2, 4, 1, 8, 3, 7, 3},
	// Ten in the due heap; the one cancelled is replaced by the heap's last
	// event, which is smaller than its new parent and must sift up.
	{8, 24, 8, 1, 8, 7, 8, 21, 8, 22, 8, 8, 8, 7, 8, 16, 8, 9, 8, 2, 4, 5, 7, 3, 7, 3, 7, 3},
	// Three in one bucket, cancelled off the middle, the tail and the head of
	// its list, each owner filed again at once, the last into the same tick.
	{10, 20, 10, 20, 10, 21, 4, 1, 10, 22, 4, 0, 10, 90, 4, 1, 10, 21, 7, 3, 7, 3},
	// Three past the horizon behind a near pooled event: the root of the
	// overflow heap cancelled, then another; a pooled one cancelled there too.
	{0, 5, 11, 0xff, 11, 0xfe, 11, 0xfd, 3, 0xfc, 4, 3, 4, 1, 4, 1, 7, 3},
	// The move-back above with every event embedded, cancelled after the
	// move-back out of the overflow heap (evicted), off a list (refiled from
	// the due heap) and off a list it stayed on.
	{11, 32, 6, 10, 11, 0x46, 11, 0x43, 8, 5, 10, 100, 4, 1, 4, 1, 4, 0, 7, 3},
	// A lap ahead, embedded and pooled mixed, cancels after the move-back.
	{11, 0xff, 3, 0xfe, 11, 0xfe, 6, 10, 12, 1, 10, 9, 2, 200, 11, 0x44, 8, 1, 4, 2, 4, 0, 7, 3},
	// Handlers that file their own event again: at the same instant (into
	// the due heap being run), a hop later, and past a Run window, where the
	// re-filed event is cancelled and its owner filed once more.
	{0x18, 5, 0x3a, 20, 7, 3, 0xf8, 5, 6, 5, 4, 0, 8, 9, 7, 3},
	// A chain from a pooled-marked twin next to embedded ones at one instant.
	{0x10, 3, 0x18, 3, 8, 3, 7, 3, 7, 3},
	// Embedded events still filed when the reversed sequence ends: Reset
	// must cancel them, leave them to their owners and recycle none.
	{8, 9, 8},
	{11, 0x10, 0, 5, 11, 0xff, 10, 40, 0, 11},
}

func TestEngineModelDirected(t *testing.T) {
	var reach modelReach
	for _, s := range directedSeqs {
		r, err := runEngineModel(s)
		if err != nil {
			t.Errorf("sequence %v: %v", s, err)
		}
		reach.add(r)
	}
	// The directed sequences must reach every path of an embedded event.
	if reach.cancelDue == 0 || reach.cancelWheel == 0 || reach.cancelFar == 0 || reach.cancelMoved == 0 ||
		reach.refiled == 0 || reach.chained == 0 || reach.resetPending == 0 {
		t.Errorf("directed sequences reach too little of the embedded paths: %+v", reach)
	}
	t.Logf("embedded paths reached: %+v", reach)
}
