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
	if !sim.Debug {
		return
	}
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
	if !sim.Debug {
		return
	}
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
	if !sim.Debug {
		return
	}
	p.Seq = poisonSeq
}

// debugDoubleFree panics on a second Put of the same packet.
func (p *Packet) debugDoubleFree() {
	if !sim.Debug {
		return
	}
	panic(fmt.Sprintf("netsim: double free of packet (gen %d)", p.gen))
}

// debugCheckSelect cross-checks a memoized selector choice against a fresh
// Select call. The cache is only consulted for cacheable (pure) selectors,
// so the recomputation is side-effect-free. A divergence means the memo key
// missed a dependency of the selector's choice, or an invalidation (route or
// selector change) failed to bump the generation — either would silently
// misroute flows in release builds.
func (s *Switch) debugCheckSelect(pkt *Packet, eligible []int32, cached int32) {
	if !sim.Debug {
		return
	}
	want := s.sel.Select(s, pkt, eligible)
	if want != cached {
		panic(fmt.Sprintf(
			"netsim: selector memo divergence at switch %d: cached port %d, recomputed %d (flow %d dst %d tag %d gen %d)",
			s.id, cached, want, pkt.Flow, pkt.Dst, pkt.PathTag, s.selGen))
	}
}

// debugCheckBook panics when the transmission on the wire is booked before
// its end: the counters, the free transmitter and the next record's bytes
// leaving the queue would be visible to the simulation earlier than the
// completion event would have shown them. Only a settle with a wrong clock or
// tie rule can do it.
func (p *Port) debugCheckBook() {
	if !sim.Debug {
		return
	}
	if now := p.eng.Now(); now < p.cur.end {
		panic(fmt.Sprintf("netsim: transmission booked at %d, before its end at %d (start %d)", now, p.cur.end, p.cur.start))
	}
}

// debugCheckRecall panics when a ledger record is recalled after its
// transmission ended: the peer's event is due from then on and may have run,
// so the packet may be queued downstream, delivered, or recycled — taking it
// back would duplicate or corrupt it in release builds.
func (p *Port) debugCheckRecall(r *txRec) {
	if !sim.Debug {
		return
	}
	if now := p.eng.Now(); now > r.end {
		panic(fmt.Sprintf("netsim: hand-off recalled at %d, after its end at %d: the peer's event may have fired", now, r.end))
	}
	if r.pkt == nil || !r.pkt.ev.Filed() {
		panic("netsim: recall of a transmission that was not handed off")
	}
}
