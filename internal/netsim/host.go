package netsim

import (
	"fmt"

	"flowbender/internal/sim"
)

// Handler receives packets addressed to a flow terminating at a host.
// TCP senders/receivers and UDP sinks implement it.
//
// On hosts with a packet pool installed (every topology built by
// internal/topo), the delivered packet is recycled as soon as Deliver
// returns: implementations must not retain pkt or its Sacks backing array
// past the call. Values copied out of the packet are, of course, fine.
type Handler interface {
	Deliver(pkt *Packet)
}

// Host is an end host with a single NIC. The paper's per-direction host
// processing delay (20 µs in §4.2, covering kernel + NIC latency) is applied
// both when sending and when receiving, so the bare-metal inter-pod RTT of
// the simulated fat-tree matches the paper's 90 µs.
type Host struct {
	eng *sim.Engine
	id  NodeID
	// keyed is Switch.keyed for a host: a positive processing delay when it
	// was built, and an ID orderTag can encode.
	keyed bool
	// NIC is the host's egress port.
	NIC *Port
	// Delay is the per-direction host processing delay; fixed at NewHost
	// (and Reset).
	Delay sim.Time

	handlers handlerTable
	pool     *PacketPool

	// crossing counts the packets crossing the egress delay as events. While
	// there are any, Send files an event too: a packet sent ahead would reach
	// the NIC's ledger before them.
	crossing int

	// Counters.
	RxPackets int64
	RxBytes   int64
	Unclaimed int64 // packets with no registered handler
}

// NewHost creates a host whose NIC transmits at rateBps. The NIC queue is
// unbounded: the sending transport's window, not the local NIC, is the
// modeled bottleneck.
func NewHost(eng *sim.Engine, id NodeID, rateBps int64, delay sim.Time) *Host {
	h := &Host{eng: eng, id: id}
	h.NIC = newPort(eng, orderTag(tagKindTx, id, 0), h)
	h.Reset(rateBps, delay)
	return h
}

// Reset is the rest of NewHost, and Switch.Reset for a host: the NIC at
// rateBps with nothing queued or timed ahead, no handler registered (the
// table keeps its array), counters zero, nothing crossing the egress delay.
// Engine, ID, NIC, its wiring and the pool are kept.
func (h *Host) Reset(rateBps int64, delay sim.Time) {
	h.handlers.clear()
	*h = Host{
		eng: h.eng, id: h.id, NIC: h.NIC, pool: h.pool, handlers: h.handlers,

		Delay: delay,
		keyed: delay > 0 && h.NIC.tag != sim.TagNone,
	}
	h.NIC.init(rateBps, h.keyed, 0, 0, nil)
}

// ID returns the host's node identifier.
func (h *Host) ID() NodeID { return h.id }

// UsePool routes the host's packet lifecycle through pl: NewPacket draws
// from it, and packets this host consumes (delivered or unclaimed) are
// recycled into it.
func (h *Host) UsePool(pl *PacketPool) {
	h.pool = pl
	h.NIC.pool = pl
}

// NewPacket returns a zeroed packet, drawn from the host's pool when one is
// installed (heap-allocated otherwise). Pool-drawn packets are recycled by
// the fabric at their terminal point — see the PacketPool ownership
// contract.
func (h *Host) NewPacket() *Packet { return h.pool.Get() }

// Register attaches a flow handler; packets for flow are delivered to it.
// Handlers live in a flat open-addressed table (not a map): delivery is the
// per-packet hot path, and the table reclaims slots on Unregister, so a run
// that churns many short flows keeps the table bounded by its peak
// concurrency.
func (h *Host) Register(flow FlowID, hd Handler) {
	if hd == nil {
		panic(fmt.Sprintf("netsim: host %d: nil handler for flow %d", h.id, flow))
	}
	if !h.handlers.put(flow, hd) {
		panic(fmt.Sprintf("netsim: host %d: duplicate handler for flow %d", h.id, flow))
	}
}

// Unregister detaches a flow handler, releasing its dispatch slot. Absent
// flows are a no-op, so teardown paths may call it unconditionally.
func (h *Host) Unregister(flow FlowID) { h.handlers.del(flow) }

// Handler returns the handler registered for flow, or nil.
func (h *Host) Handler(flow FlowID) Handler { return h.handlers.get(flow) }

// HandlerCount returns the number of currently registered flow handlers.
func (h *Host) HandlerCount() int { return h.handlers.n }

// Send emits a packet from this host after the host processing delay. The
// NIC queue is unbounded and packets reach it in the order they were sent,
// so a NIC that keeps a ledger (see Port) times the transmission now and the
// delay costs no event; otherwise the packet crosses it as one.
func (h *Host) Send(pkt *Packet) {
	pkt.debugCheckLive("Host.Send")
	if h.Delay == 0 {
		h.NIC.Enqueue(pkt)
		return
	}
	now := h.eng.Now()
	if h.crossing == 0 && h.NIC.sendAhead(pkt, now+h.Delay) {
		return
	}
	h.crossing++
	pkt.scheduleStepAt(h.eng, now+h.Delay, now, stepEnqueue, h, 0)
}

// resend puts a packet the NIC had taken ahead of time back behind the egress
// delay, as the event Send would have filed for it.
func (h *Host) resend(pkt *Packet, arr sim.Time) {
	h.crossing++
	pkt.scheduleStepAt(h.eng, arr, arr-h.Delay, stepEnqueue, h, 0)
}

// Receive implements Device.
func (h *Host) Receive(pkt *Packet, _ int) {
	pkt.debugCheckLive("Host.Receive")
	h.RxPackets++
	h.RxBytes += int64(pkt.Size)
	if h.Delay > 0 {
		now := h.eng.Now()
		pkt.scheduleStepAt(h.eng, now+h.Delay, now, stepDeliver, h, 0)
	} else {
		h.deliver(pkt)
	}
}

// receiveAt is Receive for an arrival its upstream port handed off when it
// timed the transmission (Port.handOff): the counters now, the delivery
// step at the arrival `at` plus the host delay, keyed as Receive would have
// keyed it at `at`.
func (h *Host) receiveAt(pkt *Packet, at sim.Time) {
	pkt.debugCheckLive("Host.receiveAt")
	h.RxPackets++
	h.RxBytes += int64(pkt.Size)
	pkt.scheduleStepAt(h.eng, at+h.Delay, at, stepDeliver, h, 0)
}

// unreceive takes back receiveAt's counters for a recalled hand-off.
func (h *Host) unreceive(pkt *Packet) {
	h.RxPackets--
	h.RxBytes -= int64(pkt.Size)
}

// Engine returns the engine this host executes on.
func (h *Host) Engine() *sim.Engine { return h.eng }

// deliver hands the packet to its flow's handler and then recycles it: the
// host is every packet's terminal point on the success path.
func (h *Host) deliver(pkt *Packet) {
	if hd := h.handlers.get(pkt.Flow); hd != nil {
		hd.Deliver(pkt)
	} else {
		h.Unclaimed++
	}
	h.pool.Put(pkt)
}
