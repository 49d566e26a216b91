package netsim

import "flowbender/internal/sim"

// Link is the unidirectional wire attached to an egress Port. Its peer is
// the device (and input-port number) that receives what the port transmits.
// Because each Link is one direction of a cable, failure state is inherently
// per-direction: a half-open cut is one Link down while its reverse stays up
// (see Duplex).
type Link struct {
	To     Device
	ToPort int
	// Delay is the propagation delay.
	Delay sim.Time
	// Down marks a failed link: transmissions complete but packets are lost.
	// Read it freely; change it only through Port.SetLinkDown, which first
	// takes back a packet the port handed to the peer ahead of time.
	Down bool
	// DroppedDown counts packets lost to a failed link.
	DroppedDown int64

	// DropFn, when set, is consulted for every packet that would otherwise
	// be delivered; returning true silently discards it. Fault injection
	// uses it for gray (probabilistically lossy) links; the hook keeps the
	// fabric free of any RNG dependency. Install and clear it through
	// Port.SetLinkDropFn, for the same reason as Down.
	DropFn func(pkt *Packet) bool
	// DroppedGray counts packets discarded by DropFn.
	DroppedGray int64

	// Transitions counts up<->down state changes made through
	// Port.SetLinkDown (flap accounting).
	Transitions int64
}

// Port is an egress port: a queue draining into a serializing transmitter at
// a fixed rate onto a Link. A Port may be paused by downstream PFC.
//
// A transmission ends in its completion event (finishTx), due when
// serialization ends and keyed (end, start, tag): it books the counters, runs
// the onSent hook, decides the link outcome, gives the packet to the peer
// and starts the next one. Most transmissions, though, end with nobody
// waiting behind them and nothing to decide, and those never get the event:
// when one starts with the queue empty behind it, no onSent hook, a healthy
// link and both ends of the link keyed (see handOff), the port gives the
// packet to the peer there and then — the peer's own event, filed under
// exactly the key finishTx would file it under at the end — and keeps only
// (start, end). Whoever touches the port next settles that:
//
//   - an arrival (enqueue) or a counter read (TxBytes, TxPackets,
//     Switch.LastTxEnd) past the end books the transmission on the spot;
//     an arrival before the end arms the completion event after all, under
//     the key it always had, and waits for it; on the very nanosecond of the
//     end, done tells which of the two applies from where the caller's own
//     event sorts against that key;
//   - a link change (SetLinkDown, SetLinkDropFn) recalls a packet still on
//     the wire — cancels the peer's event, takes its arrival counters back —
//     and arms finishTx to decide the packet's fate at the end, under the
//     new state.
//
// Every observable — delivery times, marks, drops, counters, what a selector
// reads — is what the completion event alone produces
// (TestHandOffMatchesCompletionEvent runs the two side by side); what
// differs is the number of events executed, a third fewer on the paper's
// all-to-all, and the engine's insertion sequence.
type Port struct {
	eng *sim.Engine
	// RateBps is the line rate in bits per second.
	RateBps int64
	Q       Queue
	Link    Link

	// busy: a transmission has started and is not yet booked. armed: its
	// completion event is scheduled. busy && !armed is a hand-off nobody has
	// needed to wait behind so far; the queue is empty whenever that holds.
	busy   bool
	paused bool
	armed  bool
	// keyed copies the owning Switch's or Host's keyed: every packet reaches
	// this port from one of the owner's pipeline events, filed under a real
	// tag, so an arrival on the nanosecond a hand-off ends can be ordered
	// against the completion that was never scheduled. Ports without it
	// (bare ones included) always schedule completions.
	keyed   bool
	txProto Proto
	// tag is the port's intrinsic ordering identity for serialization-
	// complete events (orderTag of tagKindTx, owning device, port index),
	// set when the owning switch or host is built. Bare ports default to
	// TagNone, i.e. plain insertion order.
	tag    uint16
	txSize int32

	// The transmission in progress (or the last one, once booked): when it
	// started and ends, and — together with txProto and txSize above, copied
	// because a handed-off packet may be delivered and recycled before the
	// port books it — what it adds to the counters.
	txStart, txEnd sim.Time
	// txPkt is the packet currently serializing; txDone is the prebuilt
	// completion callback, so starting a transmission allocates nothing.
	txPkt  *Packet
	txDone func()
	// txEv is non-nil while txPkt is handed off and unbooked: the peer's
	// pending event, cancellable until txEnd.
	txEv *sim.Event

	// lastTxEnd is the engine time this port last finished serializing a
	// packet, or -1 before any transmission (see Switch.LastTxEnd).
	lastTxEnd sim.Time

	// Serialization-delay memo: steady-state traffic on one port repeats a
	// single packet size, so the division in SerializationDelay is paid once
	// per (size, rate) change. The rate is part of the key because fault
	// injection degrades RateBps in place mid-run.
	memoSize  int
	memoRate  int64
	memoDelay sim.Time

	// pool, when set, recycles packets this port's link drops.
	pool *PacketPool
	// pauseFn/resumeFn are the PFC control-frame callbacks, built the first
	// time a frame has a propagation delay to cross (see pfcFrame).
	pauseFn, resumeFn func()

	// onSent, if set, runs when a packet's serialization completes (used by
	// PFC switches to release ingress accounting).
	onSent func(pkt *Packet)

	// Transmitted wire bytes per protocol and packets, as of the last booked
	// transmission; read them through TxBytes and TxPackets.
	txBytes   [numProtos]int64
	txPackets int64
}

// NewPort returns a port transmitting at rateBps driven by eng.
func NewPort(eng *sim.Engine, rateBps int64) *Port {
	p := &Port{eng: eng, RateBps: rateBps, tag: sim.TagNone, lastTxEnd: -1}
	p.txDone = p.finishTx
	return p
}

// SerializationDelay returns the time to put size bytes on the wire.
func (p *Port) SerializationDelay(size int) sim.Time {
	if size == p.memoSize && p.RateBps == p.memoRate {
		return p.memoDelay
	}
	d := sim.Time(int64(size) * 8 * int64(sim.Second) / p.RateBps)
	p.memoSize, p.memoRate, p.memoDelay = size, p.RateBps, d
	return d
}

// Enqueue offers a packet to the port. It returns false if the queue dropped
// the packet (the caller owns a rejected packet and is responsible for
// recycling it). A call on the very nanosecond a transmission ends is
// ordered after that end; the owning device's pipeline events, which know
// where they sort, use enqueue.
func (p *Port) Enqueue(pkt *Packet) bool { return p.enqueue(pkt, p.eng.Now()) }

// enqueue is Enqueue from an event filed at instant stamp under a packet-step
// tag — Switch.forward at now-FwdDelay, the host egress step at now-Delay.
func (p *Port) enqueue(pkt *Packet, stamp sim.Time) bool {
	pkt.debugCheckLive("Port.Enqueue")
	if !p.Q.Push(pkt) {
		return false
	}
	if p.busy && !p.armed {
		if p.done(stamp) {
			p.book()
		} else {
			p.arm()
		}
	}
	p.kick()
	return true
}

// SetPaused pauses or resumes the transmitter (PFC). A packet already being
// serialized finishes; pausing only prevents starting the next one.
func (p *Port) SetPaused(v bool) {
	if p.paused == v {
		return
	}
	p.paused = v
	if !v {
		p.kick()
	}
}

// Paused reports whether the port is currently PFC-paused.
func (p *Port) Paused() bool { return p.paused }

// pfcFrame returns the callback that delivers a pause or resume frame to
// this port after its propagation delay.
func (p *Port) pfcFrame(pause bool) func() {
	if p.pauseFn == nil {
		p.pauseFn = func() { p.SetPaused(true) }
		p.resumeFn = func() { p.SetPaused(false) }
	}
	if pause {
		return p.pauseFn
	}
	return p.resumeFn
}

// QueuedBytes returns the occupancy of the egress queue.
func (p *Port) QueuedBytes() int { return p.Q.Bytes() }

// TxBytes returns the wire bytes of proto this port has finished
// transmitting. Like TxPackets it counts a transmission that ends on the
// very nanosecond of the call.
func (p *Port) TxBytes(proto Proto) int64 {
	p.settle(p.eng.Now())
	return p.txBytes[proto]
}

// TxPackets returns the number of packets this port has finished
// transmitting.
func (p *Port) TxPackets() int64 {
	p.settle(p.eng.Now())
	return p.txPackets
}

// SetLinkDown changes the link's failure state, counting the transition.
// Setting the current state again is a no-op. A change on the very
// nanosecond a transmission ends applies to that transmission.
func (p *Port) SetLinkDown(down bool) {
	if p.Link.Down == down {
		return
	}
	p.takeBack()
	p.Link.Down = down
	p.Link.Transitions++
}

// SetLinkDropFn installs (or, with nil, clears) the link's gray-loss hook,
// with SetLinkDown's timing.
func (p *Port) SetLinkDropFn(fn func(pkt *Packet) bool) {
	p.takeBack()
	p.Link.DropFn = fn
}

func (p *Port) kick() {
	if p.busy || p.paused || p.Q.Empty() {
		return
	}
	pkt := p.Q.Pop()
	now := p.eng.Now()
	p.busy = true
	p.txPkt = pkt
	p.txStart, p.txEnd = now, now+p.SerializationDelay(pkt.Size)
	p.txProto, p.txSize = pkt.Proto, int32(pkt.Size)
	if !p.handOff(pkt) {
		p.arm()
	}
}

// arm schedules the current transmission's completion event, under the key
// it has always had: due at the end, filed at the start, the port's tag.
func (p *Port) arm() {
	p.armed = true
	p.eng.AtTagged(p.txEnd, p.txStart, p.tag, p.txDone)
}

// handOff gives the packet whose transmission just started to the peer ahead
// of time, when nothing needs to witness the transmission's end: no packet
// waits behind it, no onSent hook, the link is up and not gray, and the
// peer's side of the arrival is commutative counters plus one event that can
// be filed now under the key it would get at the end — a keyed Switch or
// Host (its pipeline event is later than the arrival and carries a real tag,
// so its place in the schedule does not depend on when it was inserted) on
// this engine, with no PFC accounting to do at the arrival instant. A
// transmission of zero duration keeps its event: it starts and ends on one
// nanosecond, where done's rule (a strictly earlier start) has nothing to
// compare. It reports whether it did.
func (p *Port) handOff(pkt *Packet) bool {
	l := &p.Link
	if !p.keyed || !p.Q.Empty() || p.onSent != nil || l.Down || l.DropFn != nil || p.txEnd == p.txStart {
		return false
	}
	switch d := l.To.(type) {
	case *Switch:
		if d.eng != p.eng || d.cfg.PFC != nil || !d.keyed {
			return false
		}
		if l.Delay == 0 {
			p.txEv = d.receiveAt(pkt, l.ToPort, p.txEnd)
			return true
		}
	case *Host:
		if d.eng != p.eng || !d.keyed {
			return false
		}
		if l.Delay == 0 {
			p.txEv = d.receiveAt(pkt, p.txEnd)
			return true
		}
	default:
		return false
	}
	p.txEv = pkt.scheduleStepAt(p.eng, p.txEnd+l.Delay, p.txEnd, stepReceive, l.To, l.ToPort)
	return true
}

// done reports whether an unarmed hand-off's completion would already have
// run, seen from an event filed at instant stamp under a packet-step tag:
// past its end, or on its end with the completion's key (end, start, tx tag)
// sorting first — tx tags sort after every packet-step tag, so only a
// strictly earlier start does.
func (p *Port) done(stamp sim.Time) bool {
	now := p.eng.Now()
	return p.txEnd < now || p.txEnd == now && p.txStart < stamp
}

// settle books a hand-off that done says is over.
func (p *Port) settle(stamp sim.Time) {
	if p.busy && !p.armed && p.done(stamp) {
		p.book()
	}
}

// book records the end of the current transmission: the transmitter is free
// and the counters include the packet.
func (p *Port) book() {
	p.debugCheckBook()
	p.busy, p.armed = false, false
	p.txPkt, p.txEv = nil, nil
	p.lastTxEnd = p.txEnd
	p.txBytes[p.txProto] += int64(p.txSize)
	p.txPackets++
}

// takeBack makes the port own its current transmission again ahead of a link
// change: a hand-off already over is booked under the old state; one still
// on the wire is recalled so that finishTx decides its fate at the end.
func (p *Port) takeBack() {
	if p.txEv == nil {
		return
	}
	if p.txEnd < p.eng.Now() {
		p.book()
		return
	}
	p.recall()
}

// recall undoes a hand-off whose peer event has not fired: the event is
// cancelled, the peer's arrival counters are taken back, and the completion
// event is armed (if no waiter armed it already) to run finishTx in full.
func (p *Port) recall() {
	p.debugCheckRecall()
	pkt := p.txPkt
	p.eng.Cancel(p.txEv)
	p.txEv = nil
	if p.Link.Delay == 0 {
		switch d := p.Link.To.(type) {
		case *Switch:
			d.unreceive(pkt)
		case *Host:
			d.unreceive(pkt)
		}
	}
	if !p.armed {
		p.arm()
	}
}

// finishTx completes the current packet's serialization: counters, and —
// unless the packet went to the peer when the transmission started — the
// onSent hook (PFC/shared-buffer release), then the link outcome: loss on a
// down or gray link (recycling the packet) or handoff to the peer device.
// Statement order matters: events scheduled here (PFC control frames,
// propagation) must be created in exactly the order the pre-pooling closure
// produced, so runs stay bit-identical.
func (p *Port) finishTx() {
	pkt, handed := p.txPkt, p.txEv != nil
	p.book()
	if handed {
		p.kick()
		return
	}
	if p.onSent != nil {
		p.onSent(pkt)
	}
	if p.Link.Down || p.Link.To == nil {
		p.Link.DroppedDown++
		p.pool.Put(pkt)
	} else if p.Link.DropFn != nil && p.Link.DropFn(pkt) {
		p.Link.DroppedGray++
		p.pool.Put(pkt)
	} else if p.Link.Delay > 0 {
		pkt.scheduleStep(p.eng, p.Link.Delay, stepReceive, p.Link.To, p.Link.ToPort)
	} else {
		p.Link.To.Receive(pkt, p.Link.ToPort)
	}
	p.kick()
}
