// Package netsim models a store-and-forward packet fabric: hosts, switches,
// links, drop-tail queues with DCTCP-style ECN marking, and optional
// Priority Flow Control (PFC) for lossless operation (used by DeTail).
//
// The fabric is deliberately protocol-agnostic: transports live in
// internal/tcp and internal/udp and exchange *Packet values with the fabric
// through the Host type. Path selection at switches is pluggable through the
// Selector interface (implemented in internal/routing), which is how ECMP,
// RPS, and DeTail differ; FlowBender needs only the ECMP selector because its
// adaptivity lives at the host (the PathTag field below).
package netsim

import (
	"fmt"

	"flowbender/internal/sim"
)

// NodeID identifies a host or switch in the network. Hosts and switches are
// numbered in separate spaces by the topology builder.
type NodeID int32

// FlowID uniquely identifies a transport flow within one simulation.
type FlowID int64

// Proto is the transport protocol of a packet.
type Proto uint8

const (
	// ProtoTCP marks TCP segments (data and ACKs).
	ProtoTCP Proto = iota
	// ProtoUDP marks unreliable datagrams.
	ProtoUDP
	numProtos
)

func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// Kind distinguishes data segments from acknowledgments.
type Kind uint8

const (
	// KindData is a payload-carrying segment.
	KindData Kind = iota
	// KindAck is a (payload-free) TCP acknowledgment.
	KindAck
)

// HeaderBytes is the modeled wire overhead per packet (Ethernet + IP + TCP).
const HeaderBytes = 40

// Packet is one simulated packet. Packets are passed by pointer and are not
// copied as they traverse the fabric; a packet must not be reused by the
// sender after it has been handed to the network. Packets drawn from a
// PacketPool (Host.NewPacket) are additionally recycled by the fabric once
// consumed — see the PacketPool ownership contract.
//
// A packet carries its own event. It never has more than one fabric step
// pending — link propagation, a forwarding pipeline, a host delay — because
// each stage files the next from inside the previous one's handler, so the
// step is the embedded ev, filed with sim.Engine.FileAt and fired through the
// packet itself (hop). A hop therefore touches the packet and nothing else:
// no pooled event, no closure, no allocation. The event and the step it
// stands for come first, where a hop reads first. A port that hands the
// packet off early (Port.handOff) files the peer's step on ev too, and a
// take-back cancels it there.
type Packet struct {
	ev       sim.Event
	step     uint8
	stepPort int32
	stepDev  Device

	Flow     FlowID
	Src, Dst NodeID
	SrcPort  uint16
	DstPort  uint16
	Proto    Proto
	Kind     Kind

	// PathTag is the paper's flexible hash field "V" (e.g. TTL or VLAN ID):
	// switches fold it into the ECMP hash, so changing it re-routes the flow.
	PathTag uint32

	// HashPrefix, when HashPrefixOK is set, carries the selector hash state
	// after mixing the flow-constant header fields (Src, Dst, SrcPort,
	// DstPort, Proto) — see routing.FlowHashPrefix. Transports stamp it once
	// per endpoint so every switch on the path resumes the hash instead of
	// recomputing the flow-constant half; it also keys the per-switch
	// selector memo cache. Both fields are zeroed by pool recycling, so a
	// recycled packet can never leak a stale prefix.
	HashPrefix   uint64
	HashPrefixOK bool

	// Seq is the first payload byte for data segments, or the cumulative
	// acknowledgment number for ACKs.
	Seq     int64
	Payload int // payload bytes carried
	Size    int // total wire size in bytes (Payload + HeaderBytes)

	ECT  bool // ECN-capable transport
	CE   bool // congestion experienced (set by marking queues)
	ECE  bool // on ACKs: echo of the acked segment's CE bit
	Retx bool // segment is a retransmission (excluded from RTT sampling)

	// Spray asks spray-aware selectors (routing.DiffFlow) to pick this
	// packet's egress per packet instead of per flow. Transports stamp it on
	// every packet of flows below the configured short-flow cutoff
	// (tcp.Config.SprayShortCutoff); selectors that don't differentiate
	// ignore it. Zeroed by pool recycling like every exported field.
	Spray bool

	SentAt sim.Time // virtual time the transport emitted the packet
	EchoTS sim.Time // on ACKs: SentAt of the segment being acknowledged, or -1

	// Sacks carries the receiver's selective-acknowledgment blocks on ACKs:
	// byte ranges above Seq that have been received. Real stacks cap the
	// option at 3-4 blocks; the receiver here reports the blocks nearest
	// the cumulative ACK point, which is what matters for recovery.
	Sacks []SackBlock

	// DSACK marks an ACK triggered by a fully duplicate data segment — the
	// signal (RFC 2883) senders use to detect spurious retransmissions and
	// undo the congestion-window reduction, as Linux does.
	DSACK bool

	// ReorderDist, on ACKs, is how many bytes below the highest received
	// sequence the (original, non-retransmitted) triggering data segment
	// arrived — the receiver-observed reordering depth that lets senders
	// adapt their reordering window, as Linux's SACK-based
	// tcp_update_reordering does.
	ReorderDist int64

	Hops int // switch hops traversed so far, for diagnostics

	// PFC ingress accounting (set by switches with PFC enabled).
	pfcSw *Switch
	pfcIn int

	// Free-list management (see PacketPool).
	owned  bool   // drawn from a pool; recycled at the packet's terminal point
	pooled bool   // currently in the free list (simdebug tripwire)
	gen    uint32 // incremented on each recycle (simdebug diagnostics)
}

// Hop steps a packet can be waiting on. stepIdle (zero) means no pending
// fabric event.
const (
	stepIdle    uint8 = iota
	stepReceive       // link propagation done -> Device.Receive
	stepForward       // switch forwarding pipeline done -> Switch.forward
	stepDeliver       // host ingress delay done -> Host.deliver
	stepEnqueue       // host egress delay done -> NIC enqueue
)

// tagKindTx is the orderTag event class of a port's serialization-complete
// event (Port.finishTx); the packet step kinds above are the other classes.
const tagKindTx = stepEnqueue + 1

// orderTag encodes a fabric event's intrinsic same-instant identity — event
// class, device, port — as a sim ordering tag (3+9+4 bits). Two fabric
// events with equal due time and insertion instant are ordered by this
// identity rather than by engine insertion sequence, which is what makes the
// schedule a property of the simulated network: a sharded run files cross-
// boundary arrivals under the same tag a serial run would, so same-instant
// queue contention resolves identically at any shard count.
//
// The identity is unique per (at, ins): a given input port has exactly one
// upstream transmitter whose serialization spacing forbids two same-instant
// arrivals, a port finishes at most one transmission per instant, and the
// residual collisions (e.g. a host's ingress-vs-egress pipeline events) are
// always shard-local on both sides, where insertion order is already
// reproducible. Oversized identities (fabrics beyond 512 nodes or 16 ports,
// which the shard partitioner refuses) degrade to TagNone, i.e. to plain
// insertion order.
func orderTag(kind uint8, dev NodeID, port int) uint16 {
	if dev < 0 || dev >= 1<<9 || port < 0 || port >= 1<<4 {
		return sim.TagNone
	}
	return uint16(kind)<<13 | uint16(dev)<<4 | uint16(port)
}

// scheduleStepAt files the packet's one pending step: at `at`, dev is
// invoked per step. The event is keyed by the instant `stamp` it is filed at
// and the (step, device, port) tag. A stage that follows an arrival now
// passes now and now plus its delay. One that does not, passes the arrival:
// a packet injected across a shard boundary arrived at a past instant of the
// producing shard's clock, and a packet a port hands off early
// (Port.handOff) arrives at the future instant its serialization ends;
// either way the effect must land at arrival-time-plus-delay and tie-break
// against same-due-time events exactly as if filed at the arrival.
// Host.resend files the egress step a Send skipped the same way, after the
// fact: due when the packet reaches the NIC, stamped when it was sent.
func (p *Packet) scheduleStepAt(eng *sim.Engine, at, stamp sim.Time, step uint8, dev Device, port int) {
	p.step, p.stepDev, p.stepPort = step, dev, int32(port)
	eng.FileAt(&p.ev, at, stamp, orderTag(step, dev.ID(), port), (*hop)(p))
}

// hop is a Packet as the sim.Handler of its own event: a type of its own, so
// that the method the engine calls is no part of Packet's API.
type hop Packet

// Fire runs the packet's pending step.
func (h *hop) Fire() {
	p := (*Packet)(h)
	step, dev, port := p.step, p.stepDev, int(p.stepPort)
	// Clear before dispatch: the step may end in the pool, which must not
	// retain device references.
	p.step, p.stepDev = stepIdle, nil
	switch step {
	case stepReceive:
		dev.Receive(p, port)
	case stepForward:
		dev.(*Switch).forward(p)
	case stepDeliver:
		dev.(*Host).deliver(p)
	case stepEnqueue:
		h := dev.(*Host)
		h.crossing--
		h.NIC.enqueue(p, h.eng.Now()-h.Delay)
	}
}

func (p *Packet) String() string {
	k := "data"
	if p.Kind == KindAck {
		k = "ack"
	}
	return fmt.Sprintf("%s %s flow=%d %d->%d seq=%d len=%d tag=%d ce=%v",
		p.Proto, k, p.Flow, p.Src, p.Dst, p.Seq, p.Payload, p.PathTag, p.CE)
}

// SackBlock is one selectively acknowledged byte range [Start, End).
type SackBlock struct {
	Start, End int64
}

// Device is anything packets can be delivered to: a Host or a Switch.
type Device interface {
	// ID returns the device's node identifier.
	ID() NodeID
	// Receive accepts a packet arriving on input port inPort.
	Receive(pkt *Packet, inPort int)
}
