package tcp

import (
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
)

// Receiver is the data sink of a flow. It reassembles the byte stream,
// acknowledges every data packet as it arrives — each ACK's ECE echoes that
// packet's CE bit exactly, so the sender's marked-byte accounting is exact —
// and accounts out-of-order arrivals.
type Receiver struct {
	eng  *sim.Engine
	flow *Flow

	srcPort, dstPort uint16 // for ACKs (receiver -> sender direction)
	// hashPrefix is the flow-constant selector hash state of the reverse
	// (ACK) direction, stamped into every packet the receiver emits.
	hashPrefix uint64
	// spray mirrors the sender's short-flow marking onto the reverse
	// direction so ACKs of sprayed flows are sprayed too.
	spray bool

	rcvNxt     int64
	maxSeqSeen int64
	sacked     intervalSet

	// Counters.
	DataPackets int64
	OutOfOrder  int64
	DupData     int64 // data entirely below rcvNxt (spurious retransmissions)
	AcksSent    int64
	MarkedData  int64 // CE-marked data packets received
}

func newReceiver(eng *sim.Engine, cfg Config, flow *Flow, srcPort, dstPort uint16) *Receiver {
	r := &Receiver{
		eng: eng, flow: flow,
		srcPort: srcPort, dstPort: dstPort,
		maxSeqSeen: -1,
	}
	r.hashPrefix = routing.FlowHashPrefix(flow.Dst.ID(), flow.Src.ID(), srcPort, dstPort, netsim.ProtoTCP)
	r.spray = cfg.SprayShortCutoff > 0 && flow.Size < cfg.SprayShortCutoff
	return r
}

// Deliver implements netsim.Handler for the receiving host.
func (r *Receiver) Deliver(pkt *netsim.Packet) {
	if pkt.Kind != netsim.KindData {
		return
	}
	r.DataPackets++
	if pkt.CE {
		r.MarkedData++
	}

	// Out-of-order accounting (§4.2.3): an original (non-retransmitted)
	// packet arriving below the highest sequence already seen was passed in
	// flight — the reordering that path changes and packet spraying cause.
	var reorderDist int64
	if pkt.Seq < r.maxSeqSeen && !pkt.Retx {
		r.OutOfOrder++
		reorderDist = r.maxSeqSeen - pkt.Seq
	}
	if pkt.Seq > r.maxSeqSeen {
		r.maxSeqSeen = pkt.Seq
	}

	end := pkt.Seq + int64(pkt.Payload)
	dup := false
	switch {
	case end <= r.rcvNxt:
		r.DupData++
		dup = true
	case pkt.Seq <= r.rcvNxt:
		r.rcvNxt = end
		r.rcvNxt = r.sacked.consume(r.rcvNxt)
	case r.sacked.covered(pkt.Seq, end):
		r.DupData++
		dup = true
	default:
		r.sacked.add(pkt.Seq, end)
	}

	if r.rcvNxt >= r.flow.Size && r.flow.RecvDone < 0 {
		r.flow.RecvDone = r.eng.Now()
		if r.flow.OnComplete != nil {
			r.flow.OnComplete(r.flow)
		}
		if r.flow.Src.Engine() != r.flow.Dst.Engine() {
			// Cross-shard flow: the sender's teardown cannot release this
			// host's dispatch slot from another engine, so the receiver
			// schedules its own — same 2x RTOMax quiet period, same
			// stray-traffic argument as Sender.scheduleTeardown.
			r.eng.Schedule(2*RTOMax, r.teardown)
		}
	}

	r.sendAck(pkt, dup, reorderDist)
}

// teardown releases the receiver's dispatch slot on its own shard; used
// only for cross-shard flows (same-shard flows are torn down by the sender
// for both endpoints, preserving the serial unregister order).
func (r *Receiver) teardown() {
	r.flow.Dst.Unregister(r.flow.ID)
}

// sendAck emits the cumulative acknowledgment for pkt, echoing its CE bit
// and path tag. Karn's rule: only an original segment's timestamp is echoed
// for an RTT sample.
func (r *Receiver) sendAck(pkt *netsim.Packet, dsack bool, reorderDist int64) {
	ack := r.flow.Dst.NewPacket()
	ack.Flow = r.flow.ID
	ack.Src = r.flow.Dst.ID()
	ack.Dst = r.flow.Src.ID()
	ack.SrcPort = r.srcPort
	ack.DstPort = r.dstPort
	ack.Proto = netsim.ProtoTCP
	ack.Kind = netsim.KindAck
	ack.HashPrefix = r.hashPrefix
	ack.HashPrefixOK = true
	ack.Seq = r.rcvNxt
	ack.Size = netsim.HeaderBytes
	ack.ECT = true
	ack.ECE = pkt.CE
	ack.SentAt = r.eng.Now()
	ack.EchoTS = -1
	if !pkt.Retx {
		ack.EchoTS = pkt.SentAt
	}
	ack.Sacks = r.sacked.appendBlocks(ack.Sacks[:0], maxSackBlocks)
	ack.DSACK = dsack
	ack.ReorderDist = reorderDist
	ack.PathTag = pkt.PathTag
	ack.Spray = r.spray
	r.AcksSent++
	r.flow.Dst.Send(ack)
}

// intervalSet is a small sorted set of disjoint [start, end) byte ranges
// buffered above the in-order point.
type intervalSet struct {
	iv []ivl
}

type ivl struct{ s, e int64 }

// add inserts [s, e) and merges overlaps.
func (x *intervalSet) add(s, e int64) {
	if s >= e {
		return
	}
	// Find insertion point (sorted by start).
	i := 0
	for i < len(x.iv) && x.iv[i].s < s {
		i++
	}
	x.iv = append(x.iv, ivl{})
	copy(x.iv[i+1:], x.iv[i:])
	x.iv[i] = ivl{s, e}
	// Merge around i.
	j := i
	if j > 0 && x.iv[j-1].e >= x.iv[j].s {
		j--
	}
	for j+1 < len(x.iv) && x.iv[j].e >= x.iv[j+1].s {
		if x.iv[j+1].e > x.iv[j].e {
			x.iv[j].e = x.iv[j+1].e
		}
		x.iv = append(x.iv[:j+1], x.iv[j+2:]...)
	}
}

// consume advances next through any buffered interval that now abuts it and
// returns the new in-order point.
func (x *intervalSet) consume(next int64) int64 {
	for len(x.iv) > 0 && x.iv[0].s <= next {
		if x.iv[0].e > next {
			next = x.iv[0].e
		}
		x.iv = x.iv[1:]
	}
	return next
}

// maxSackBlocks bounds the SACK option size, as the TCP option space does.
const maxSackBlocks = 4

// appendBlocks appends up to max buffered ranges to dst as SACK blocks,
// nearest the cumulative ACK point first, and returns the extended slice
// (dst itself when the set is empty). Reusing dst's backing array is what
// keeps SACK-carrying ACKs allocation-free on pooled packets (the array
// survives recycling).
func (x *intervalSet) appendBlocks(dst []netsim.SackBlock, max int) []netsim.SackBlock {
	n := len(x.iv)
	if n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		dst = append(dst, netsim.SackBlock{Start: x.iv[i].s, End: x.iv[i].e})
	}
	return dst
}

// covered returns whether [s, e) lies entirely inside one buffered range.
func (x *intervalSet) covered(s, e int64) bool {
	for _, r := range x.iv {
		if r.s <= s && e <= r.e {
			return true
		}
		if r.s > s {
			break
		}
	}
	return false
}

// bytesAbove returns how many buffered bytes lie at or above seq.
func (x *intervalSet) bytesAbove(seq int64) int64 {
	var n int64
	for _, r := range x.iv {
		if r.e <= seq {
			continue
		}
		s := r.s
		if s < seq {
			s = seq
		}
		n += r.e - s
	}
	return n
}

// nextUncovered returns the first byte >= seq not inside a buffered range.
func (x *intervalSet) nextUncovered(seq int64) int64 {
	for _, r := range x.iv {
		if seq < r.s {
			return seq
		}
		if seq < r.e {
			seq = r.e
		}
	}
	return seq
}
