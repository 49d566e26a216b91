package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// This file model-checks the production engine (4-ary index heap, lazy
// cancellation, free-list recycling) against an obviously-correct reference:
// an unsorted slice scanned for the (time, seq) minimum, with Cancel as
// immediate removal. Random operation sequences — Schedule, Cancel, Run,
// Step — must produce identical firing order, identical clocks, and
// identical executed counts. testing/quick drives short random sequences on
// every `go test`; FuzzEngine (fuzz_test.go) reuses the same interpreter for
// coverage-guided exploration with a checked-in corpus.

// refEvent is one pending event in the reference model.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refModel is the executable specification: (time, insertion-order) total
// order, cancel-by-removal, clock advanced to each fired event.
type refModel struct {
	now   Time
	seq   uint64
	evs   []refEvent
	order []int
}

func (m *refModel) schedule(d Time, id int) {
	m.evs = append(m.evs, refEvent{at: m.now + d, seq: m.seq, id: id})
	m.seq++
}

func (m *refModel) cancel(id int) {
	for i := range m.evs {
		if m.evs[i].id == id {
			m.evs = append(m.evs[:i], m.evs[i+1:]...)
			return
		}
	}
}

func (m *refModel) min() int {
	best := 0
	for i := 1; i < len(m.evs); i++ {
		e, b := m.evs[i], m.evs[best]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
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
		switch op % 8 {
		case 0, 1, 2, 3: // schedule (half of all ops)
			db, _ := nextByte()
			// Three delay regimes so the calendar queue's paths are all
			// exercised: tiny delays force same-time ties inside one wheel
			// bucket, mid delays spread across buckets, and case-3 delays
			// reach past the wheel horizon (~524 µs) into the overflow
			// heap, covering migration and cursor wrap.
			var d Time
			switch {
			case op%8 == 3:
				d = Time(db) * 8191 // 0 .. ~2.1 ms, up to 4 laps out
			case op%8 == 2:
				d = Time(db) * 257 // 0 .. ~65 µs, tens of buckets
			default:
				d = Time(db % 32)
			}
			id := nextID
			nextID++
			h := &handle{id: id}
			h.ev = eng.Schedule(d, func() {
				got = append(got, id)
				h.done = true
			})
			ref.schedule(d, id)
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
		case 6: // run a bounded window (alternating near and multi-lap far)
			db, _ := nextByte()
			w := Time(db % 64)
			if db >= 128 {
				w = Time(db) * 16384 // up to ~4 ms: jump the clock across laps
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

// A few directed sequences that previously had no coverage: cancel storms,
// interleaved run/step, heavy same-time ties, and calendar-queue edges —
// overflow migration, the cursor jumping forward past idle gaps, and the
// cursor moving backward when a short delay is scheduled after Run left the
// clock short of a far-future event (the lap-collision path).
func TestEngineModelDirected(t *testing.T) {
	seqs := [][]byte{
		{},
		{0, 0, 0, 0, 0, 0, 7, 3},
		{0, 5, 1, 5, 2, 5, 3, 5, 4, 0, 4, 1, 6, 63},
		{0, 0, 4, 0, 0, 0, 4, 0, 6, 10, 0, 0, 4, 1, 7, 2},
		{3, 31, 2, 31, 1, 31, 0, 31, 5, 2, 5, 1, 5, 0, 6, 63, 6, 63},
		// Far event beyond the horizon, then drain: overflow migration.
		{3, 255, 7, 3},
		// Far event; bounded run leaves it pending with the cursor advanced;
		// then near events land behind the cursor and must still fire first.
		{3, 255, 6, 150, 0, 5, 0, 5, 7, 3},
		// Mixed laps: near, one lap out, four laps out, interleaved with
		// cancels and a multi-lap run window.
		{0, 9, 3, 70, 3, 255, 2, 200, 4, 1, 6, 255, 7, 3},
		// Idle gap then reschedule: cursor snaps forward on an empty engine.
		{0, 5, 7, 0, 3, 130, 7, 0, 0, 5, 7, 3},
	}
	for _, s := range seqs {
		if err := runEngineModel(s); err != nil {
			t.Errorf("sequence %v: %v", s, err)
		}
	}
}
