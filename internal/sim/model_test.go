package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// This file model-checks the production engine (bucket lists on a timing
// wheel, one due heap, an overflow heap, lazy cancellation, free-list
// recycling) against an obviously-correct reference: an unsorted slice
// scanned for the (at, ins, tag, counter) minimum, with Cancel as immediate
// removal. Random operation sequences — Schedule, AtTagged, Cancel, Run,
// Step — must produce identical firing order, identical clocks, and
// identical executed counts. testing/quick drives short random sequences on
// every `go test`; FuzzEngine (fuzz_test.go) reuses the same interpreter for
// coverage-guided exploration with a checked-in corpus.

// refEvent is one pending event in the reference model.
type refEvent struct {
	at, ins Time
	tag     uint16
	counter uint64
	id      int
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

func (m *refModel) schedule(at, stamp Time, tag uint16, id int) {
	m.evs = append(m.evs, refEvent{at: at, ins: stamp, tag: tag, counter: m.counter, id: id})
	m.counter++
}

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

// checkQueue verifies what the calendar queue's code relies on between
// operations: a bucket list holds the events of one tick, its own, inside the
// wheel window; the due heap holds the cursor's tick; nothing pending is
// earlier than the cursor; the bitmaps and the counters are exact.
func checkQueue(e *Engine) error {
	nWheel := 0
	for i := range e.buckets {
		for ev := e.buckets[i]; ev != nil; ev = ev.next {
			nWheel++
			if t := tickOf(ev.at); t&wheelMask != int64(i) || t <= e.curTick || t-e.curTick >= wheelBuckets {
				return fmt.Errorf("bucket %d holds tick %d with the cursor at %d", i, t, e.curTick)
			}
			if ev.far || ev.pooled || ev.fired {
				return fmt.Errorf("bucket %d holds an event with far=%v pooled=%v fired=%v", i, ev.far, ev.pooled, ev.fired)
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
		if t := tickOf(ev.at); t != e.curTick || ev.far || ev.pooled {
			return fmt.Errorf("due heap holds tick %d (far=%v pooled=%v) with the cursor at %d", t, ev.far, ev.pooled, e.curTick)
		}
	}
	nCancel := 0
	for _, ev := range e.overflow {
		if t := tickOf(ev.at); t <= e.curTick || !ev.far || ev.pooled {
			return fmt.Errorf("overflow heap holds tick %d (far=%v pooled=%v) with the cursor at %d", t, ev.far, ev.pooled, e.curTick)
		}
		if ev.cancel {
			nCancel++
		}
	}
	if nCancel != e.nCancel {
		return fmt.Errorf("nCancel = %d, overflow holds %d cancelled", e.nCancel, nCancel)
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
// the firing order and the engine's snapshot after every operation.
type modelRun struct {
	order []int
	trace []EngineState
}

// runEngineModel interprets data on a new engine, and then again on an engine
// recycled from a run of the reversed sequence — abandoned mid-flight with
// whatever it had pending, cancelled and in the overflow heap — which must
// match the new engine step for step.
func runEngineModel(data []byte) error {
	fresh, err := interpretModel(NewEngine(), data, true)
	if err != nil {
		return err
	}
	prior := make([]byte, len(data))
	for i, b := range data {
		prior[len(data)-1-i] = b
	}
	eng := NewEngine()
	if _, err := interpretModel(eng, prior, false); err != nil {
		return fmt.Errorf("prior run: %v", err)
	}
	eng.Reset()
	recycled, err := interpretModel(eng, data, true)
	if err != nil {
		return fmt.Errorf("on a recycled engine: %v", err)
	}
	return fresh.diff(recycled)
}

// diff reports the first step at which a recycled engine's run left the new
// engine's.
func (a modelRun) diff(b modelRun) error {
	if len(a.trace) != len(b.trace) || len(a.order) != len(b.order) {
		return fmt.Errorf("recycled engine: %d steps and %d firings, new engine %d and %d",
			len(b.trace), len(b.order), len(a.trace), len(a.order))
	}
	for k := range a.trace {
		if a.trace[k] != b.trace[k] {
			return fmt.Errorf("recycled engine diverges at step %d: %+v, new engine %+v", k, b.trace[k], a.trace[k])
		}
	}
	for k := range a.order {
		if a.order[k] != b.order[k] {
			return fmt.Errorf("recycled engine pops id %d at position %d, new engine id %d", b.order[k], k, a.order[k])
		}
	}
	return nil
}

// interpretModel interprets data as an operation sequence over both eng (at
// time zero, nothing pending) and the reference model and returns an error on
// any divergence. With drain false it stops after the last operation, leaving
// the engine however the sequence left it. The interpreter respects the
// handle-lifetime contract: a handle is only cancelled while its callback has
// not run (the `done` flag is set by the callback itself, exactly how
// transports drop their timer handles).
func interpretModel(eng *Engine, data []byte, drain bool) (modelRun, error) {
	ref := &refModel{}
	var got []int
	var trace []EngineState

	type handle struct {
		ev   *Event
		id   int
		done bool
	}
	var live []*handle
	nextID := 0

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
			id := nextID
			nextID++
			h := &handle{id: id}
			h.ev = eng.AtTagged(at, stamp, tag, func() {
				got = append(got, id)
				h.done = true
			})
			ref.schedule(at, stamp, tag, id)
			live = append(live, h)
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
			// Note: after Cancel the handle must be treated as dropped — the
			// engine may compact immediately and recycle the object, so even
			// reading h.ev.Cancelled() here would violate the lifetime
			// contract (and panic under simdebug).
			eng.Cancel(h.ev)
			h.done = true
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
		return modelRun{order: got, trace: trace}, nil
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
	return modelRun{order: got, trace: append(trace, eng.Snapshot())}, nil
}

func TestEngineModelQuick(t *testing.T) {
	f := func(data []byte) bool {
		if err := runEngineModel(data); err != nil {
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
}

func TestEngineModelDirected(t *testing.T) {
	for _, s := range directedSeqs {
		if err := runEngineModel(s); err != nil {
			t.Errorf("sequence %v: %v", s, err)
		}
	}
}
