package netsim

import (
	"testing"

	"flowbender/internal/sim"
)

// A mailbox whose contents bypass the merge sort must trip the order check:
// out-of-order injection would assign engine insertion sequences that differ
// from serial execution, silently breaking bit-identity.
func TestSimdebugCrossMergeOrderTripwire(t *testing.T) {
	if !sim.Debug {
		t.Skip("requires -tags simdebug")
	}
	eng := sim.NewEngine()
	h := NewHost(eng, 0, 10_000_000_000, 20*sim.Microsecond)
	msgs := []CrossMsg{
		{At: 2000, Pkt: h.NewPacket(), Dst: h},
		{At: 1000, Pkt: h.NewPacket(), Dst: h}, // deliberately out of order
	}
	mustPanic(t, "out of merge order", func() { applyCross(msgs, 1000) })
}

// An arrival whose effect lands inside the window must trip the lookahead
// check: it means the bounded-lag window was wider than the fabric's true
// minimum cross-shard delay, i.e. the consuming shard's clock may already
// have passed the effect time.
func TestSimdebugCrossLookaheadTripwire(t *testing.T) {
	if !sim.Debug {
		t.Skip("requires -tags simdebug")
	}
	eng := sim.NewEngine()
	h := NewHost(eng, 0, 10_000_000_000, 20*sim.Microsecond)
	msgs := []CrossMsg{{At: 1000, Pkt: h.NewPacket(), Dst: h}}
	// Effect at 1000 + 20µs; claim the window extends far beyond it.
	mustPanic(t, "lookahead violated", func() { applyCross(msgs, 1000+40*sim.Microsecond) })
}

// The happy path must not trip either check.
func TestSimdebugCrossMergeClean(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 0, 10_000_000_000, 20*sim.Microsecond)
	msgs := []CrossMsg{
		{At: 1000, Pkt: h.NewPacket(), Dst: h},
		{At: 2000, Pkt: h.NewPacket(), Dst: h},
	}
	MergeCross(msgs, 1000)
	if got := eng.Pending(); got != 2 {
		t.Fatalf("merged %d events; want 2", got)
	}
}
