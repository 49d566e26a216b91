//go:build simdebug

package netsim

import (
	"fmt"

	"flowbender/internal/sim"
)

// poisonSeq is written into recycled packets so stale reads see an absurd
// sequence number even if they bypass the panics below.
const poisonSeq int64 = -0x5151515151515151

// debugCheckLive panics when a packet that sits in a pool's free list is
// handed back to the fabric — a use-after-free that silently corrupts runs
// in release builds if a caller violates the ownership contract — or when
// the packet's own event is still filed: a second pending step, or, at
// PacketPool.Put, an event the engine would fire on a zeroed packet. The
// fabric calls it at every packet entry point (Host.Send/Receive,
// Switch.Receive, Port.Enqueue, the hand-offs) and where a packet is
// recycled.
func (p *Packet) debugCheckLive(site string) {
	if p.pooled {
		panic(fmt.Sprintf("netsim: %s on recycled packet (gen %d): packet retained after delivery or drop", site, p.gen))
	}
	if p.ev.Filed() {
		panic(fmt.Sprintf("netsim: %s on a packet whose step %d at %d is still filed (gen %d): a packet has one pending event", site, p.step, p.ev.Time(), p.gen))
	}
}

// debugAlloc validates a packet coming off the free list and clears the
// poison so callers see a fully zeroed packet.
func (p *Packet) debugAlloc() {
	if !p.pooled {
		panic(fmt.Sprintf("netsim: free list returned a live packet (gen %d)", p.gen))
	}
	if p.Seq != poisonSeq {
		panic(fmt.Sprintf("netsim: free-list packet not poisoned (seq=%d, gen %d): double release or external write", p.Seq, p.gen))
	}
	p.Seq = 0
}

// debugPoison marks a packet as it enters the free list.
func (p *Packet) debugPoison() {
	p.Seq = poisonSeq
}

// debugDoubleFree panics on a second Put of the same packet.
func (p *Packet) debugDoubleFree() {
	panic(fmt.Sprintf("netsim: double free of packet (gen %d)", p.gen))
}

// debugCheckSelect cross-checks a memoized selector choice against a fresh
// Select call. The cache is only consulted for cacheable (pure) selectors,
// so the recomputation is side-effect-free. A divergence means the memo key
// missed a dependency of the selector's choice, or an invalidation (route or
// selector change) failed to bump the generation — either would silently
// misroute flows in release builds.
func (s *Switch) debugCheckSelect(pkt *Packet, eligible []int32, cached int32) {
	want := s.sel.Select(s, pkt, eligible)
	if want != cached {
		panic(fmt.Sprintf(
			"netsim: selector memo divergence at switch %d: cached port %d, recomputed %d (flow %d dst %d tag %d gen %d)",
			s.id, cached, want, pkt.Flow, pkt.Dst, pkt.PathTag, s.selGen))
	}
}

// debugCheckCross validates one cross-shard arrival at merge time:
//
//  1. Lookahead: the arrival's scheduled effect (forward at +FwdDelay,
//     deliver at +HostDelay) must land at or after the window boundary. A
//     violation means the bounded-lag window was wider than the fabric's true
//     minimum cross-shard delay — the consuming shard's clock has already
//     passed the effect time, and release builds would corrupt causality.
//  2. Merge order: the mailbox contents must arrive in strictly increasing
//     (time, destination, port) key order; a violation means a mailbox was
//     mutated outside the barrier protocol or the sort was bypassed, either
//     of which silently breaks bit-identity with serial execution.
func debugCheckCross(msgs []CrossMsg, i int, windowEnd sim.Time) {
	m := &msgs[i]
	effect := m.At
	switch d := m.Dst.(type) {
	case *Switch:
		effect += d.cfg.FwdDelay
	case *Host:
		effect += d.Delay
	}
	if effect < windowEnd {
		panic(fmt.Sprintf(
			"netsim: shard lookahead violated: cross-shard arrival at %d has effect at %d before window end %d (dst %d port %d)",
			m.At, effect, windowEnd, m.Dst.ID(), m.InPort))
	}
	if i > 0 && !crossKeyLess(msgs[i-1], *m) {
		panic(fmt.Sprintf(
			"netsim: cross-shard mailbox out of merge order at index %d (dst %d port %d at %d)",
			i, m.Dst.ID(), m.InPort, m.At))
	}
}

// DebugPokeSelectCache plants a (deliberately wrong) memoized choice for
// pkt's key under the cache's current generation, as if an invalidation had
// been missed. Only the simdebug build has it: tests use it to prove the
// cross-check above actually fires. Panics if the switch has no memo cache
// (none exists before the switch's first cached selection).
func (s *Switch) DebugPokeSelectCache(pkt *Packet, port int32) {
	if !s.selCached || s.selCache == nil {
		panic("netsim: DebugPokeSelectCache on a switch without a selector memo cache")
	}
	sl := &s.selCache[selCacheIndex(pkt.HashPrefix, pkt.Dst, pkt.PathTag)]
	*sl = selSlot{prefix: pkt.HashPrefix, dst: pkt.Dst, tag: pkt.PathTag, gen: s.selGen, port: port}
}

// debugCheckBook panics when the transmission on the wire is booked before
// its end: the counters, the free transmitter and the next record's bytes
// leaving the queue would be visible to the simulation earlier than the
// completion event would have shown them. Only a settle with a wrong clock or
// tie rule can do it.
func (p *Port) debugCheckBook() {
	if now := p.eng.Now(); now < p.cur.end {
		panic(fmt.Sprintf("netsim: transmission booked at %d, before its end at %d (start %d)", now, p.cur.end, p.cur.start))
	}
}

// debugCheckRecall panics when a ledger record is recalled after its
// transmission ended: the peer's event is due from then on and may have run,
// so the packet may be queued downstream, delivered, or recycled — taking it
// back would duplicate or corrupt it in release builds.
func (p *Port) debugCheckRecall(r *txRec) {
	if now := p.eng.Now(); now > r.end {
		panic(fmt.Sprintf("netsim: hand-off recalled at %d, after its end at %d: the peer's event may have fired", now, r.end))
	}
	if r.pkt == nil || !r.pkt.ev.Filed() {
		panic("netsim: recall of a transmission that was not handed off")
	}
}
