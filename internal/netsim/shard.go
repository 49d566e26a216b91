// Cross-shard packet handoff for the conservative-parallel execution mode
// (sim.ShardSet). A fabric cable whose endpoints live on different shards is
// interposed with a CrossLink proxy: instead of invoking the remote device's
// Receive — which would race with the remote shard's goroutine — the proxy
// records the arrival in a single-producer/single-consumer mailbox. At each
// bounded-lag window barrier the consuming shard drains its mailboxes and
// injects the arrivals in a deterministic order, so the merged schedule is
// bit-identical to serial execution.
//
// Determinism argument. Serial execution orders same-instant arrivals by
// engine insertion sequence, which a sharded run cannot reconstruct. Instead
// the merge sorts by the intrinsic key (arrival time, destination device ID,
// destination input port). The key is total: a given input port has exactly
// one upstream transmitter, whose serialization delay makes two completions
// at the same instant impossible, so no two in-flight messages ever share
// all three coordinates. Because both the immediate effects of an arrival
// (receive counters, hop count) are commutative additions and the scheduled
// effect (forward/deliver) lands strictly after the window boundary, the
// deferred injection is invisible to the simulation's observable behavior.
package netsim

import (
	"fmt"
	"sort"

	"flowbender/internal/sim"
)

// CrossMsg is one packet arrival crossing a shard boundary: the packet, where
// it arrived, and the producing shard's clock when it did.
type CrossMsg struct {
	At     sim.Time
	Pkt    *Packet
	Dst    Device
	InPort int32
}

// crossKeyLess orders cross-shard arrivals by the deterministic merge key
// (arrival time, destination device, destination input port).
func crossKeyLess(a, b CrossMsg) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if ai, bi := a.Dst.ID(), b.Dst.ID(); ai != bi {
		return ai < bi
	}
	return a.InPort < b.InPort
}

// CrossBox is the mailbox for one directed (producer shard, consumer shard)
// pair. The producer appends during a window; the consumer drains at the
// barrier. The window barrier is the only synchronization — the box itself
// is a plain slice, which is exactly why each pair gets its own.
type CrossBox struct {
	msgs []CrossMsg
}

// Drain appends the box's messages to dst and empties it, dropping packet
// references so recycled packets are not retained.
func (b *CrossBox) Drain(dst []CrossMsg) []CrossMsg {
	dst = append(dst, b.msgs...)
	for i := range b.msgs {
		b.msgs[i] = CrossMsg{}
	}
	b.msgs = b.msgs[:0]
	return dst
}

// CrossLink is the proxy interposed as Link.To on a cable that crosses a
// shard boundary. It impersonates the remote endpoint (same ID) but turns
// arrivals into mailbox entries stamped with the producing shard's clock.
type CrossLink struct {
	eng *sim.Engine // producing shard's clock
	box *CrossBox
	dst Device // the real remote endpoint
}

// NewCrossLink builds a proxy for dst reachable from the shard driven by eng,
// depositing into box.
func NewCrossLink(eng *sim.Engine, box *CrossBox, dst Device) *CrossLink {
	return &CrossLink{eng: eng, box: box, dst: dst}
}

// ID implements Device, impersonating the remote endpoint.
func (c *CrossLink) ID() NodeID { return c.dst.ID() }

// Receive implements Device: the packet has finished link propagation on the
// producer's clock; park it for the consumer's next merge.
func (c *CrossLink) Receive(pkt *Packet, inPort int) {
	c.box.msgs = append(c.box.msgs, CrossMsg{At: c.eng.Now(), Pkt: pkt, Dst: c.dst, InPort: int32(inPort)})
}

// MergeCross sorts the drained messages by the deterministic merge key and
// injects them into the consuming shard (each destination device schedules
// on its own engine). windowEnd is the first instant of the next window; the
// bounded-lag contract guarantees every injected effect lands at or after it
// (the simdebug build verifies this).
func MergeCross(msgs []CrossMsg, windowEnd sim.Time) {
	sort.Slice(msgs, func(i, j int) bool { return crossKeyLess(msgs[i], msgs[j]) })
	applyCross(msgs, windowEnd)
}

// applyCross injects pre-sorted messages. Split from MergeCross so the
// simdebug order tripwire can be exercised directly.
func applyCross(msgs []CrossMsg, windowEnd sim.Time) {
	for i := range msgs {
		debugCheckCross(msgs, i, windowEnd)
		m := &msgs[i]
		switch d := m.Dst.(type) {
		case *Switch:
			d.receiveAt(m.Pkt, int(m.InPort), m.At)
		case *Host:
			d.receiveAt(m.Pkt, m.At)
		default:
			panic(fmt.Sprintf("netsim: cross-shard delivery to unsupported device type %T", m.Dst))
		}
	}
}

// receiveAt is Receive for an arrival at instant `at` that is not now: a
// packet that crossed a shard boundary (at is past, applied at the merge
// barrier) or one its upstream port handed off when it timed the
// transmission (at is still to come, see Port.handOff). The arrival's immediate effects are
// commutative counters, applied here instead of at the arrival instant, and
// the forwarding pipeline is scheduled at the absolute arrival time plus the
// forwarding delay — which the bounded-lag window guarantees has not yet
// passed on this shard — under the key Receive would have given it.
func (s *Switch) receiveAt(pkt *Packet, inPort int, at sim.Time) {
	pkt.debugCheckLive("Switch.receiveAt")
	if s.cfg.PFC != nil {
		// PFC pause state is read synchronously by upstream ports; it
		// cannot be applied at a barrier or ahead of the arrival. The
		// partitioner refuses to shard PFC fabrics and Port.handOff keeps
		// the completion event toward a PFC receiver, so this is
		// unreachable on supported paths.
		panic("netsim: arrival at a PFC-enabled switch applied off its instant (cross-shard merge or port hand-off)")
	}
	s.RxPackets++
	pkt.Hops++
	pkt.scheduleStepAt(s.eng, at+s.cfg.FwdDelay, at, stepForward, s, inPort)
}

// unreceive takes back receiveAt's counters for a recalled hand-off.
func (s *Switch) unreceive(pkt *Packet) {
	s.RxPackets--
	pkt.Hops--
}

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

// Engine returns the engine (shard) this host executes on.
func (h *Host) Engine() *sim.Engine { return h.eng }
