package experiments

import (
	"fmt"

	"flowbender/internal/checkpoint"
	"flowbender/internal/sim"
)

// defaultCheckpointEvery is the watermark cadence used when checkpointing
// is on and no explicit cadence was given: 500 ms of virtual time is ~100
// drain chunks between marks — frequent enough that an interrupted run
// loses little progress context, rare enough that the file writes never
// show up next to the simulation itself.
const defaultCheckpointEvery = 500 * sim.Millisecond

func (o Options) ckptCadence() sim.Time {
	if o.CheckpointEvery > 0 {
		return o.CheckpointEvery
	}
	return defaultCheckpointEvery
}

// ckptTracker carries one simulation point's checkpoint obligations
// through its drain loop (serial) or window-barrier ticks (sharded):
// record a watermark every cadence interval (or immediately when a flush
// was requested by the signal handler), and verify the watermark loaded
// from a resumed file as the replay passes its recorded barrier instant.
//
// All tracker methods are nil-safe no-ops, so the simulation loops call
// them unconditionally and pay nothing when checkpointing is off.
type ckptTracker struct {
	m       *checkpoint.Manager
	key     string
	cadence sim.Time
	next    sim.Time
	expect  *checkpoint.PointMark
}

// ckptTracker returns the tracker for the current point, or nil when
// checkpointing is off or the point was launched without a label.
func (o Options) ckptTracker() *ckptTracker {
	if o.Ckpt == nil || o.pointKey == "" {
		return nil
	}
	t := &ckptTracker{m: o.Ckpt, key: o.pointKey, cadence: o.ckptCadence()}
	t.next = t.cadence
	// A wedged flag recorded without engine state (the point never reached
	// a barrier) carries no verifiable watermark.
	if pm, ok := o.Ckpt.Expected(o.pointKey); ok && len(pm.Engines) > 0 {
		t.expect = &pm
	}
	return t
}

// tick is called at every quiescent barrier — a serial drain-chunk
// boundary or a sharded window chunk boundary — with every engine idle
// exactly at `boundary`. Barriers are the only instants marks are taken
// at, because they are the only instants a deterministic replay is
// guaranteed to pass through again: both grids are pure functions of the
// run configuration the checkpoint descriptor pins.
func (t *ckptTracker) tick(boundary sim.Time, engines ...*sim.Engine) {
	if t == nil {
		return
	}
	if e := t.expect; e != nil && boundary >= sim.Time(e.SimTime) {
		t.verify(boundary, engines)
		t.expect = nil
	}
	if boundary >= t.next || t.m.FlushRequested() {
		pm := checkpoint.PointMark{Key: t.key, SimTime: int64(boundary)}
		for _, eng := range engines {
			pm.Engines = append(pm.Engines, eng.Snapshot())
		}
		t.m.Mark(pm)
		for boundary >= t.next {
			t.next += t.cadence
		}
	}
}

// verify cross-checks the replayed engines against the resumed file's
// watermark. Reaching the barrier instant off-grid, with a different
// shard count, or with any engine diverged means the resumed run is NOT
// the run that wrote the checkpoint — fail loudly rather than publish
// results that silently differ from what the interrupted run would have
// produced.
func (t *ckptTracker) verify(boundary sim.Time, engines []*sim.Engine) {
	e := t.expect
	if boundary != sim.Time(e.SimTime) {
		panic(fmt.Sprintf("checkpoint: point %s replayed past its recorded barrier: replay reached %v, checkpoint was taken at %v — the run configuration does not match the checkpoint",
			t.key, boundary, sim.Time(e.SimTime)))
	}
	if len(engines) != len(e.Engines) {
		panic(fmt.Sprintf("checkpoint: point %s replayed with %d engine shard(s), checkpoint recorded %d",
			t.key, len(engines), len(e.Engines)))
	}
	for i, eng := range engines {
		eng.VerifyRestore(e.Engines[i])
	}
}
