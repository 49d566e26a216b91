// Package udp provides a fixed-rate unreliable sender and a byte-counting
// sink. The paper's hotspot experiment (§4.3.1) uses a rate-limited 6 Gbps
// UDP flow pinned to one path (a static hash, i.e. fixed PathTag) to create
// an asymmetric hotspot that FlowBender's TCP traffic must steer around.
// The sender can alternatively spray bursts across paths with a
// core.Sprayer, the paper's §3.4.3 suggestion for UDP load balancing.
package udp

import (
	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
)

// Sender emits fixed-size datagrams at a constant bit rate.
type Sender struct {
	eng  *sim.Engine
	id   netsim.FlowID
	src  *netsim.Host
	dst  *netsim.Host
	rate int64 // bits per second (of wire bytes)
	size int   // payload bytes per datagram

	// PathTag is the static tag used when Sprayer is nil.
	PathTag uint32
	// Sprayer, when set, re-draws the tag every burst (§3.4.3).
	Sprayer *core.Sprayer

	srcPort, dstPort uint16
	// hashPrefix is the flow-constant selector hash state stamped into every
	// datagram (see routing.FlowHashPrefix).
	hashPrefix uint64
	interval   sim.Time
	stopped    bool
	seq        int64
	tickFn     func() // prebuilt so each tick schedules without allocating

	Sent int64 // datagrams emitted
}

// NewSender creates a UDP source from src to dst at rateBps with the given
// payload size per datagram. Call Start to begin.
func NewSender(eng *sim.Engine, id netsim.FlowID, src, dst *netsim.Host, rateBps int64, payload int) *Sender {
	if payload <= 0 {
		payload = 1460
	}
	wire := int64(payload + netsim.HeaderBytes)
	s := &Sender{
		eng:      eng,
		id:       id,
		src:      src,
		dst:      dst,
		rate:     rateBps,
		size:     payload,
		srcPort:  uint16(20000 + (uint64(id)*2654435761)%40000),
		dstPort:  5002,
		interval: sim.Time(wire * 8 * int64(sim.Second) / rateBps),
	}
	s.tickFn = s.tick
	s.hashPrefix = routing.FlowHashPrefix(src.ID(), dst.ID(), s.srcPort, s.dstPort, netsim.ProtoUDP)
	return s
}

// Start begins the periodic transmission.
func (s *Sender) Start() {
	s.stopped = false
	s.tick()
}

// Stop halts transmission after the current datagram.
func (s *Sender) Stop() { s.stopped = true }

func (s *Sender) tick() {
	if s.stopped {
		return
	}
	tag := s.PathTag
	if s.Sprayer != nil {
		tag = s.Sprayer.Tag(s.size)
	}
	pkt := s.src.NewPacket()
	pkt.Flow = s.id
	pkt.Src = s.src.ID()
	pkt.Dst = s.dst.ID()
	pkt.SrcPort = s.srcPort
	pkt.DstPort = s.dstPort
	pkt.Proto = netsim.ProtoUDP
	pkt.Kind = netsim.KindData
	pkt.PathTag = tag
	pkt.HashPrefix = s.hashPrefix
	pkt.HashPrefixOK = true
	pkt.Seq = s.seq
	pkt.Payload = s.size
	pkt.Size = s.size + netsim.HeaderBytes
	pkt.SentAt = s.eng.Now()
	pkt.EchoTS = -1
	s.seq += int64(s.size)
	s.Sent++
	s.src.Send(pkt)
	s.eng.Schedule(s.interval, s.tickFn)
}

// Sink counts arriving datagrams for a flow.
type Sink struct {
	Packets int64
	Bytes   int64
	// OutOfOrder counts datagrams arriving below the highest sequence seen.
	OutOfOrder int64
	maxSeq     int64
}

// NewSink returns a sink; register it on the destination host for the
// sender's flow ID.
func NewSink() *Sink { return &Sink{maxSeq: -1} }

// Deliver implements netsim.Handler.
func (k *Sink) Deliver(pkt *netsim.Packet) {
	k.Packets++
	k.Bytes += int64(pkt.Payload)
	if pkt.Seq < k.maxSeq {
		k.OutOfOrder++
	} else {
		k.maxSeq = pkt.Seq
	}
}
