//go:build !simdebug

package netsim

import "flowbender/internal/sim"

// debugCheckLive, debugAlloc, debugPoison, and debugDoubleFree are no-ops in
// release builds, so the pool tripwires cost nothing on the hot path. Build
// with `-tags simdebug` for the checked versions, which panic on any use of
// a recycled packet.
func (p *Packet) debugCheckLive(string) {}

func (p *Packet) debugAlloc()      {}
func (p *Packet) debugPoison()     {}
func (p *Packet) debugDoubleFree() {}

// debugCheckSelect is a no-op in release builds; with -tags simdebug every
// selector-memo hit is cross-checked against a fresh Select call.
func (s *Switch) debugCheckSelect(*Packet, []int32, int32) {}

// debugCheckCross is a no-op in release builds; with -tags simdebug every
// cross-shard merge verifies the lookahead bound and the mailbox merge
// order.
func debugCheckCross([]CrossMsg, int, sim.Time) {}

// debugCheckBook and debugCheckRecall are no-ops in release builds; with
// -tags simdebug a transmission booked before it ends, or a ledger record
// recalled after the peer's event may have fired, panics.
func (p *Port) debugCheckBook()         {}
func (p *Port) debugCheckRecall(*txRec) {}
