package netsim

import (
	"fmt"

	"flowbender/internal/sim"
)

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

// Port is an egress port: a FIFO queue draining into a serializing
// transmitter at a fixed rate onto a Link. A Port may be paused by downstream
// PFC.
//
// The reference behaviour is the completion event. A packet offered to the
// port is admitted to the queue (drop-tail, ECN mark, the queue's counters);
// an idle transmitter pops the head and serializes it from start to
// end = start + size/rate; at end the completion event (finishTx, keyed
// (end, start, tag)) books the counters, runs the onSent hook, decides the
// link outcome, gives the packet to the peer — whose own pipeline event is
// filed there under (end + peer delay, end, peer tag) — and pops the next.
// A port has at most one armed transmission, so the completion event is its
// own, embedded (tx) and fired through the port itself (portTx), as a
// packet's step is (see Packet).
//
// A FIFO port at a fixed rate knows all of that the moment the packet is
// offered, so most ports never run the event. Such a port keeps a ledger of
// transmissions timed ahead: when everything ahead of an arriving packet is
// already in the ledger, the packet is timed on the spot
// (start = max(arrival, the previous record's end)), the peer's event — the
// packet's own — is filed at once under the key finishTx would give it at
// end, and a record (start, end, size, proto, packet) joins the ledger — the
// oldest one inline in the Port (cur), followers in a ring that grows on
// demand. A record is in one of three states:
//
//   - sent ahead: Host.Send timed it an egress delay before the packet
//     reaches the NIC (sendAhead); the queue's counters have not seen it;
//   - waiting: the packet has arrived, its bytes are in Q.bytes, an earlier
//     record is on the wire;
//   - on the wire: always cur; its bytes have left Q.bytes.
//
// Nothing happens at a record's end. Whoever touches the port next settles
// the ledger up to its own place in the schedule (settle): every arrival and
// completion that sorts before the caller is replayed in key order — an
// arrival adds its size to the queue's counters, a completion books the
// transmit counters and lastTxEnd and puts the next record on the wire — so
// marks, drops, MaxBytes, TxBytes/TxPackets, Switch.LastTxEnd and
// Switch.QueueBytes are what completion events produce. A record is booked
// from its own copy of size and proto: its packet may have been delivered
// and recycled long before.
//
// Anything that changes when the port transmits — SetLinkDown,
// SetLinkDropFn, SetRate, SetPaused(true), a packet that cannot join the
// ledger — first takes the ledger back (takeBack): what is over is booked;
// every other record has its packet's event cancelled and the peer's arrival
// counters undone; the record on the wire stays cur, now the port's own,
// with finishTx armed at its end; waiting packets go into the real queue,
// to be timed when they start; packets sent ahead go back behind the host's
// egress delay as the events Send would have filed (Host.resend).
//
// Which ports keep a ledger follows from what the port can observe, packet
// by packet (handOff): no onSent hook (PFC and shared-buffer switches need
// the completion instant), an up, non-gray link, both ends keyed, the peer a
// Switch without PFC or a Host, a transmission longer
// than zero nanoseconds, and — once something waits in the real queue or an
// armed completion owns the wire — not until the queue has drained through
// completion events. Every other port runs the reference path untouched.
//
// Ties. An arrival, a LastTxEnd or a QueueBytes read on the nanosecond a
// record ends is ordered exactly: the caller passes the instant its own
// event was filed at (stamp), and the completion sorts first iff
// start < stamp (done) — tx tags sort after every packet-step tag. A
// sent-ahead arrival (arr, arr-Delay, egress tag) sorts before a completion
// on its nanosecond iff arr-Delay <= start. A change through the setters
// above is pinned, not ordered: it applies to a transmission ending, and
// precedes a packet arriving, on that very nanosecond, unless that
// transmission started or that packet was sent at time zero (unstamped) —
// what the events did for every change filed at set-up. Outside callers
// (Enqueue, TxBytes, TxPackets) see a transmission ending or a packet
// arriving on the nanosecond of the call as done.
//
// TestHandOffMatchesCompletionEvent runs random fabrics both ways and
// compares every observable; what differs is the number of events executed
// (one per hop where nobody needs the completion instant) and the engine's
// insertion sequence.
type Port struct {
	eng *sim.Engine

	// cur is the oldest unbooked transmission while busy — on the wire, or
	// sent ahead toward an idle port. armed: cur is the port's own and tx is
	// filed at its end; the ring is empty then. Not armed, cur and the ring
	// are the ledger, and the real queue is empty.
	cur    txRec
	busy   bool
	armed  bool
	paused bool
	// keyed copies the owning Switch's or Host's keyed: every packet reaches
	// this port from one of the owner's pipeline events, filed under a real
	// tag, so an arrival on the nanosecond a record ends can be ordered
	// against the completion that was never scheduled. Ports without it
	// (bare ones included) always schedule completions.
	keyed bool
	// tag is the port's intrinsic ordering identity for serialization-
	// complete events (orderTag of tagKindTx, owning device, port index),
	// set when the owning switch or host is built. Bare ports default to
	// TagNone, i.e. plain insertion order.
	tag uint16

	// tail is the end of the ledger's newest record while busy.
	tail sim.Time
	// lastTxEnd is the engine time this port last finished serializing a
	// packet, or -1 before any transmission (see Switch.LastTxEnd).
	lastTxEnd sim.Time
	// Transmitted wire bytes per protocol and packets, as of the last booked
	// transmission; read them through TxBytes and TxPackets.
	txBytes   [numProtos]int64
	txPackets int64

	// RateBps is the line rate in bits per second. Write it directly only
	// while a fabric is being built; a running port changes rate through
	// SetRate, which takes back the transmissions timed at the old one.
	RateBps int64
	// Serialization-delay memo: steady-state traffic on one port repeats a
	// single packet size, so the division in SerializationDelay is paid once
	// per (size, rate) change.
	memoRate  int64
	memoDelay sim.Time
	memoSize  int

	// unarrived counts the records sent ahead, always the ledger's newest.
	unarrived int
	// ring holds the ledger's records behind cur, oldest at head; its length
	// is a power of two (or zero before the first follower).
	head, n int
	ring    []txRec
	// host is the owner of a NIC (nil on a switch port): its Delay separates
	// a sent-ahead record's filing stamp from its arrival.
	host *Host

	Link Link
	// onSent, if set, is told when a packet's serialization completes (a PFC
	// or shared-buffer switch releases its accounting there).
	onSent sentHook

	Q Queue

	// tx is the completion event of the armed transmission.
	tx sim.Event
	// pool, when set, recycles packets this port's link drops.
	pool *PacketPool
	// pauseFn/resumeFn are the PFC control-frame callbacks, built the first
	// time a frame has a propagation delay to cross (see pfcFrame).
	pauseFn, resumeFn func()
}

// sentHook is who a port tells that it finished serializing a packet: its
// switch, or a test's function.
type sentHook interface {
	onPortSent(pkt *Packet)
}

// txRec is one transmission: the armed one, or a record of the ledger.
type txRec struct {
	start, end sim.Time
	// arr is when a sent-ahead packet reaches the port, and arrived once the
	// queue's counters have seen the packet.
	arr sim.Time
	// pkt is for finishTx and takeBack alone, and only while end has not
	// passed; a record's peer event is the packet's own.
	pkt   *Packet
	size  int32
	proto Proto
}

// arrived is txRec.arr for a packet that has reached the port.
const arrived sim.Time = -1

// unstamped is the settle stamp of a caller that cannot say where its own
// event sorts within the nanosecond — a setter, Host.Send. It stands for an
// untagged event filed at time zero, which is how every fault plan is filed:
// of what falls on the caller's nanosecond, only a transmission started or a
// packet sent at time zero precedes it (stamp 1 makes done's strict
// comparison read "at zero").
const unstamped sim.Time = 1

// newPort allocates a port and gives it what never changes afterwards: its
// engine, its ordering tag and, for a NIC, its host. The owner wires the
// link; everything else is init's.
func newPort(eng *sim.Engine, tag uint16, host *Host) *Port {
	return &Port{eng: eng, tag: tag, host: host}
}

// init is both the rest of the port's construction and its reset (see
// Switch.Reset): the whole value is assigned, so a field init does not name —
// a counter, a flag, the ledger, one added later — is zero afterwards whether
// the port is new or has carried traffic. Kept are the identity newPort gave,
// the pool, the link's wiring (its failure state and counters go) and the two
// arrays, emptied: the ledger's ring and the queue's FIFO. The owner decides
// the rest: the rate, whether arrivals are keyed, the queue's capacity and
// marking threshold, and the completion hook. The completion event must not
// be filed (Engine.Reset cancels it; `-tags simdebug` panics).
func (p *Port) init(rateBps int64, keyed bool, queueCap, markK int, onSent sentHook) {
	if sim.Debug && p.tx.Filed() {
		panic(fmt.Sprintf("netsim: port reset while its completion at %d is filed: reset the engine first", p.tx.Time()))
	}
	clear(p.ring)
	clear(p.Q.buf)
	*p = Port{
		eng: p.eng, tag: p.tag, host: p.host, pool: p.pool,
		Link: Link{To: p.Link.To, ToPort: p.Link.ToPort, Delay: p.Link.Delay},
		ring: p.ring[:0],
		Q:    Queue{Cap: queueCap, MarkK: markK, buf: p.Q.buf[:0]},

		RateBps:   rateBps,
		keyed:     keyed,
		onSent:    onSent,
		lastTxEnd: -1,
	}
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
// where they sort, use enqueue. A host with a processing delay feeds its NIC
// itself (Host.Send), in an order a direct call would break.
func (p *Port) Enqueue(pkt *Packet) bool { return p.enqueue(pkt, p.eng.Now()) }

// enqueue is Enqueue from an event filed at instant stamp under a packet-step
// tag — Switch.forward at now-FwdDelay, the host egress step at now-Delay.
func (p *Port) enqueue(pkt *Packet, stamp sim.Time) bool {
	pkt.debugCheckLive("Port.Enqueue")
	p.settle(stamp)
	if !p.Q.admit(pkt) {
		return false
	}
	if p.timeAhead(pkt, p.eng.Now(), false) {
		return true
	}
	p.takeBack()
	p.Q.append(pkt)
	p.kick()
	return true
}

// sendAhead is enqueue for a packet that will reach this NIC at arr, an
// egress delay from now: the same timing, with the queue's counters left for
// settle to apply when it replays the arrival. That needs a queue that never
// drops or marks, and — checked by Host.Send — arrivals in the order of the
// calls. It reports whether the NIC took the packet; when it did not, the
// ledger is taken back so that the caller's egress event cannot overtake a
// packet sent ahead. Where the caller's event sorts within this nanosecond
// is unknown, and the timing does not depend on it: the ledger is settled
// as for a setter.
func (p *Port) sendAhead(pkt *Packet, arr sim.Time) bool {
	p.settle(unstamped)
	if p.Q.Cap == 0 && p.Q.MarkK == 0 && p.timeAhead(pkt, arr, true) {
		return true
	}
	p.takeBack()
	return false
}

// timeAhead times the transmission of a packet that reaches the port at arr —
// now and admitted, or, sent, an egress delay from now with the queue's
// counters still to see it — and files the peer's event, when everything
// ahead of the packet is in the ledger and handOff agrees. It reports whether
// it did.
func (p *Port) timeAhead(pkt *Packet, arr sim.Time, sent bool) bool {
	if p.paused || p.busy && p.armed || !p.Q.Empty() {
		return false
	}
	start := arr
	if p.busy && p.tail > start {
		start = p.tail
	}
	end := start + p.SerializationDelay(pkt.Size)
	if !p.handOff(pkt, start, end) {
		return false
	}
	p.tail = end
	rec := txRec{start: start, end: end, arr: arrived, pkt: pkt, size: int32(pkt.Size), proto: pkt.Proto}
	if sent {
		rec.arr = arr
		p.unarrived++
	}
	if p.busy {
		p.pushRec(rec)
		return true
	}
	p.busy = true
	p.cur = rec
	if !sent {
		p.Q.bytes -= pkt.Size
	}
	return true
}

// pushRec appends a record to the ring, which doubles when full. A port that
// was reset keeps its ring's array behind an empty slice; the first follower
// takes it back whole.
func (p *Port) pushRec(rec txRec) {
	if p.n == len(p.ring) {
		if p.n == 0 && cap(p.ring) > 0 {
			p.ring = p.ring[:cap(p.ring)]
		} else {
			grown := make([]txRec, max(8, 2*len(p.ring)))
			for i := 0; i < p.n; i++ {
				grown[i] = p.ring[(p.head+i)&(len(p.ring)-1)]
			}
			p.ring = grown
		}
		p.head = 0
	}
	p.ring[(p.head+p.n)&(len(p.ring)-1)] = rec
	p.n++
}

// popRec removes the ring's oldest record, leaving its slot holding nothing.
func (p *Port) popRec() txRec {
	r := &p.ring[p.head]
	rec := *r
	*r = txRec{}
	p.head = (p.head + 1) & (len(p.ring) - 1)
	p.n--
	return rec
}

// SetPaused pauses or resumes the transmitter (PFC). A packet already being
// serialized finishes; pausing only prevents starting the next one.
func (p *Port) SetPaused(v bool) {
	if p.paused == v {
		return
	}
	if v {
		p.takeBack()
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

// SetRate changes the line rate, with SetLinkDown's timing: the packet on
// the wire keeps its end, everything behind it is serialized at bps.
func (p *Port) SetRate(bps int64) {
	p.takeBack()
	p.RateBps = bps
}

// kick starts the real queue's head on an idle transmitter: as the first
// record of a new ledger when nothing waits behind it, else as the port's
// own, with a completion event to start the next.
func (p *Port) kick() {
	if p.busy || p.paused || p.Q.Empty() {
		return
	}
	pkt := p.Q.Pop()
	now := p.eng.Now()
	end := now + p.SerializationDelay(pkt.Size)
	p.busy, p.tail = true, end
	p.cur = txRec{start: now, end: end, arr: arrived, pkt: pkt, size: int32(pkt.Size), proto: pkt.Proto}
	if !p.Q.Empty() || !p.handOff(pkt, now, end) {
		p.arm()
	}
}

// arm files cur's completion event, under the key it has always had: due at
// the end, filed at the start, the port's tag.
func (p *Port) arm() {
	p.armed = true
	p.eng.FileAt(&p.tx, p.cur.end, p.cur.start, p.tag, (*portTx)(p))
}

// portTx is a Port as the sim.Handler of its completion event, a type of its
// own so that the method the engine calls is no part of Port's API.
type portTx Port

// Fire completes the armed transmission.
func (t *portTx) Fire() { (*Port)(t).finishTx() }

// handOff gives a packet whose transmission has been timed to the peer ahead
// of time, when nothing needs to witness the transmission's end: no onSent
// hook, the link is up and not gray, and the peer's side of the arrival is
// commutative counters plus one event that can be filed now under the key it
// would get at the end — a keyed Switch or Host (its pipeline event is later
// than the arrival and carries a real tag, so its place in the schedule does
// not depend on when it was inserted), with no PFC accounting to do at the
// arrival instant. A fabric is built on one engine, so the peer's is p's. A transmission of zero duration keeps its
// event: it starts and ends on one nanosecond, where done's rule (a strictly
// earlier start) has nothing to compare. It reports whether it handed the
// packet off, its own event filed for the peer.
func (p *Port) handOff(pkt *Packet, start, end sim.Time) bool {
	l := &p.Link
	if !p.keyed || p.onSent != nil || l.Down || l.DropFn != nil || end == start {
		return false
	}
	switch d := l.To.(type) {
	case *Switch:
		if d.cfg.PFC != nil || !d.keyed {
			return false
		}
		if l.Delay == 0 {
			d.receiveAt(pkt, l.ToPort, end)
			return true
		}
	case *Host:
		if !d.keyed {
			return false
		}
		if l.Delay == 0 {
			d.receiveAt(pkt, end)
			return true
		}
	default:
		return false
	}
	pkt.scheduleStepAt(p.eng, end+l.Delay, end, stepReceive, l.To, l.ToPort)
	return true
}

// done reports whether the completion of the ledger's record on the wire
// would already have run, seen from an event filed at instant stamp under a
// packet-step tag: past its end, or on its end with the completion's key
// (end, start, tx tag) sorting first — tx tags sort after every packet-step
// tag, so only a strictly earlier start does.
func (p *Port) done(stamp sim.Time) bool {
	now := p.eng.Now()
	return p.cur.end < now || p.cur.end == now && p.cur.start < stamp
}

// settle brings the ledger up to the caller's place in the schedule: it
// books every record whose completion done says is over, each booking putting
// the next record on the wire.
func (p *Port) settle(stamp sim.Time) {
	if !p.busy || p.armed {
		return
	}
	if p.unarrived > 0 {
		p.replay(stamp)
		return
	}
	for p.busy && p.done(stamp) {
		p.book()
	}
}

// replay is settle on a NIC with records sent ahead: their arrivals are
// replayed too, merged with the completions in the order of the events they
// stand for. An arrival — key (arr, arr-Delay, egress tag), which sorts
// before every tx tag — precedes cur's completion when cur itself is what
// arrives, or by that key; it counts the packet into the queue, and straight
// out again when it is cur and so finds the transmitter idle.
func (p *Port) replay(stamp sim.Time) {
	now, delay := p.eng.Now(), p.host.Delay
	for p.busy {
		c := &p.cur
		if p.unarrived > 0 {
			a := c
			if i := p.n - p.unarrived; i >= 0 {
				a = &p.ring[(p.head+i)&(len(p.ring)-1)]
			}
			if a == c || a.arr < c.end || a.arr == c.end && a.arr-delay <= c.start {
				if a.arr > now || a.arr == now && a.arr-delay >= stamp {
					return
				}
				p.Q.arrive(int(a.size))
				if a == c {
					p.Q.bytes -= int(a.size)
				}
				a.arr = arrived
				p.unarrived--
				continue
			}
		}
		if !p.done(stamp) {
			return
		}
		p.book()
	}
}

// book records the end of the transmission on the wire — the counters
// include the packet — and puts the ledger's next record there, taking a
// packet that has arrived out of the queue's bytes; with none the
// transmitter is free.
func (p *Port) book() {
	p.debugCheckBook()
	c := &p.cur
	p.armed = false
	p.lastTxEnd = c.end
	p.txBytes[c.proto] += int64(c.size)
	p.txPackets++
	if p.n == 0 {
		p.busy = false
		c.pkt = nil
		return
	}
	*c = p.popRec()
	if c.arr == arrived {
		p.Q.bytes -= int(c.size)
	}
}

// takeBack makes the port own what it has yet to transmit again, ahead of a
// change to when or whether it transmits: records already over are booked
// under the old state; the record on the wire is recalled so that finishTx
// decides its fate at the end; waiting packets go to the real queue and
// packets sent ahead back behind the host's egress delay, all in order.
func (p *Port) takeBack() {
	if !p.busy || p.armed {
		return
	}
	p.settle(unstamped)
	if !p.busy {
		return
	}
	c := &p.cur
	p.recall(c)
	if c.arr == arrived {
		p.arm()
	} else {
		p.busy = false
		p.unsend(c)
	}
	for p.n > 0 {
		r := p.popRec()
		p.recall(&r)
		if r.arr == arrived {
			p.Q.append(r.pkt)
		} else {
			p.unsend(&r)
		}
	}
}

// recall undoes a record's hand-off, whose peer event — the packet's own —
// has not fired: the event is cancelled, which takes it out of the engine at
// once so that the packet may be filed again, and the peer's arrival
// counters are taken back.
func (p *Port) recall(r *txRec) {
	p.debugCheckRecall(r)
	p.eng.Cancel(&r.pkt.ev)
	if p.Link.Delay == 0 {
		switch d := p.Link.To.(type) {
		case *Switch:
			d.unreceive(r.pkt)
		case *Host:
			d.unreceive(r.pkt)
		}
	}
}

// unsend gives a recalled sent-ahead packet back to the host.
func (p *Port) unsend(r *txRec) {
	p.unarrived--
	p.host.resend(r.pkt, r.arr)
	r.pkt = nil
}

// finishTx completes the port's own transmission: counters, the onSent hook
// (PFC/shared-buffer release), then the link outcome: loss on a down or gray
// link (recycling the packet) or handoff to the peer device. Statement order
// matters: events scheduled here (PFC control frames, propagation) must be
// created in exactly the order the pre-pooling closure produced, so runs
// stay bit-identical.
func (p *Port) finishTx() {
	pkt := p.cur.pkt
	p.book()
	if p.onSent != nil {
		p.onSent.onPortSent(pkt)
	}
	if p.Link.Down || p.Link.To == nil {
		p.Link.DroppedDown++
		p.pool.Put(pkt)
	} else if p.Link.DropFn != nil && p.Link.DropFn(pkt) {
		p.Link.DroppedGray++
		p.pool.Put(pkt)
	} else if d := p.Link.Delay; d > 0 {
		now := p.eng.Now()
		pkt.scheduleStepAt(p.eng, now+d, now, stepReceive, p.Link.To, p.Link.ToPort)
	} else {
		p.Link.To.Receive(pkt, p.Link.ToPort)
	}
	p.kick()
}
