package routing

import (
	"math"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// InfiniteGap disables flowlet redraws and table expiry entirely: a Flowlet
// selector with Gap = InfiniteGap is bit-identical to per-flow ECMP (the
// degenerate-config differential test pins this).
const InfiniteGap = sim.Time(math.MaxInt64)

// flowletKey identifies one flowlet-table entry: the flow-constant hash
// prefix plus the fields the ECMP hash would otherwise fold in per packet.
// Keying on (prefix, dst, tag) rather than the raw 5-tuple keeps lookups to
// one word compare and reuses the HashPrefix machinery transports already
// stamp on every packet.
type flowletKey struct {
	prefix uint64
	dst    netsim.NodeID
	tag    uint32
}

// flowletEntry is one tracked flowlet. Entries form an intrusive LRU list
// ordered by last-seen time (head = most recent) and are recycled through a
// free list, so steady-state selection allocates nothing.
type flowletEntry struct {
	key  flowletKey
	last sim.Time // time of the most recent packet of this flowlet
	draw uint64   // 0 = base ECMP choice; otherwise the redraw seed
	port int32    // egress chosen at the last selection (gap tracking)

	prev, next *flowletEntry
}

// flowletState is the per-switch scratch a flowlet selector stores through
// Switch.SetSelectorScratch. It is created lazily and kept by the switch for
// the next flowlet install, which empties it first.
type flowletState struct {
	table      map[flowletKey]*flowletEntry
	head, tail *flowletEntry // LRU: head = most recently seen
	free       *flowletEntry

	// portEwma is FlowDyn's per-port drain-time estimate in float64
	// nanoseconds of sim.Time (allocated only by FlowDyn).
	portEwma []float64
}

func flowletStateOf(sw *netsim.Switch, dyn bool) *flowletState {
	v, owned := sw.SelectorScratch()
	st, ok := v.(*flowletState)
	if ok && owned {
		return st
	}
	if ok {
		st.empty()
	} else {
		st = &flowletState{table: make(map[flowletKey]*flowletEntry, 64)}
	}
	if dyn && st.portEwma == nil {
		st.portEwma = make([]float64, len(sw.Ports))
	}
	sw.SetSelectorScratch(st)
	return st
}

// empty puts a table an earlier install left back into the state a new one
// starts in, keeping its memory: the map cleared, the LRU list spliced onto
// the free list, the EWMAs zeroed, everything else zero by the assignment.
func (st *flowletState) empty() {
	clear(st.table)
	clear(st.portEwma)
	free := st.free
	if st.tail != nil {
		st.tail.next, free = free, st.head
	}
	*st = flowletState{table: st.table, free: free, portEwma: st.portEwma}
}

func keyOf(pkt *netsim.Packet) flowletKey {
	prefix := pkt.HashPrefix
	if !pkt.HashPrefixOK {
		prefix = FlowHashPrefix(pkt.Src, pkt.Dst, pkt.SrcPort, pkt.DstPort, pkt.Proto)
	}
	return flowletKey{prefix: prefix, dst: pkt.Dst, tag: pkt.PathTag}
}

// lookup returns the entry for pkt's flowlet, creating one (draw 0 — the
// base ECMP choice) on first sight.
func (st *flowletState) lookup(pkt *netsim.Packet, now sim.Time) (e *flowletEntry, isNew bool) {
	k := keyOf(pkt)
	if e = st.table[k]; e != nil {
		return e, false
	}
	if e = st.free; e != nil {
		st.free = e.next
		*e = flowletEntry{key: k, last: now}
	} else {
		e = &flowletEntry{key: k, last: now}
	}
	st.table[k] = e
	st.pushHead(e)
	return e, true
}

func (st *flowletState) pushHead(e *flowletEntry) {
	e.prev = nil
	e.next = st.head
	if st.head != nil {
		st.head.prev = e
	}
	st.head = e
	if st.tail == nil {
		st.tail = e
	}
}

func (st *flowletState) unlink(e *flowletEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		st.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		st.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// touch moves e to the LRU head (most recently seen).
func (st *flowletState) touch(e *flowletEntry) {
	if st.head == e {
		return
	}
	st.unlink(e)
	st.pushHead(e)
}

// expire evicts entries idle longer than retention from the LRU tail.
// retention < 0 means never expire (the InfiniteGap regime).
func (st *flowletState) expire(now sim.Time, retention sim.Time) {
	if retention < 0 {
		return
	}
	for st.tail != nil && now-st.tail.last > retention {
		e := st.tail
		st.unlink(e)
		delete(st.table, e.key)
		e.next = st.free
		st.free = e
	}
}

// retentionOf derives the table-expiry horizon from a switching gap: long
// enough (4x) that an entry can never be evicted while its flowlet is still
// within the gap, saturating to "never" when 4x would overflow — which is
// what makes Gap = InfiniteGap structurally identical to ECMP.
func retentionOf(gap sim.Time) sim.Time {
	if gap <= 0 || gap > InfiniteGap/4 {
		return -1
	}
	return 4 * gap
}

// flowletPort maps an entry's draw onto the eligible ports. Draw 0 uses the
// exact per-flow ECMP hash; a redraw remixes the hash with the draw seed
// through an avalanche so consecutive redraws are independent.
func flowletPort(sw *netsim.Switch, pkt *netsim.Packet, eligible []int32, draw uint64) int32 {
	h := flowKeyHash(pkt, switchSalt(sw))
	if draw != 0 {
		h ^= draw * 0x9e3779b97f4a7c15
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return eligible[h%uint64(len(eligible))]
}

// Flowlet is flowlet switching with a fixed idle-gap threshold (Kandula et
// al.'s FLARE observation): packets of a flow separated by less than Gap
// stay on the flow's current path; an idle gap of at least Gap opens a new
// flowlet, which redraws the path. Because a gap of one path's worth of
// queueing delay guarantees the old path has drained, redraws at that
// granularity cannot reorder packets. State is per switch (see
// flowletState); the selector is deliberately not cacheable — its choice
// depends on the clock.
type Flowlet struct {
	// Gap is the idle threshold that opens a new flowlet. InfiniteGap
	// never redraws (bit-identical to ECMP); Gap <= 0 redraws on every
	// packet.
	Gap sim.Time
}

// Select implements netsim.Selector.
func (f *Flowlet) Select(sw *netsim.Switch, pkt *netsim.Packet, eligible []int32) int32 {
	st := flowletStateOf(sw, false)
	now := sw.Now()
	e, isNew := st.lookup(pkt, now)
	if !isNew && now-e.last >= f.Gap {
		e.draw = uint64(now) + 1
	}
	e.last = now
	st.touch(e)
	st.expire(now, retentionOf(f.Gap))
	e.port = flowletPort(sw, pkt, eligible, e.draw)
	return e.port
}

// FlowDyn is flowlet switching with a dynamically tracked gap (Bonato et
// al.): instead of one fixed threshold, each egress port maintains an EWMA
// of its drain time (queued bytes over line rate) and the switching gap for
// a flowlet currently pinned to port p is dynMult x that estimate — the
// time a packet trailing through p's queue could still be in flight — minus
// however long p has already been idle, clamped to [dynMinGap, dynMaxGap].
// Ports under pressure demand long gaps (safe), drained ports allow short
// ones (agile).
type FlowDyn struct{}

const (
	// dynMinGap and dynMaxGap clamp the dynamic threshold.
	dynMinGap = 20 * sim.Microsecond
	dynMaxGap = 1 * sim.Millisecond
	// dynMult scales the drain-time estimate into a gap (safety factor).
	dynMult = 2.0
	// dynGain is the EWMA gain applied to each new drain-time sample.
	dynGain = 0.25
)

// drainTime returns port p's instantaneous queue drain time.
func drainTime(sw *netsim.Switch, p int32) sim.Time {
	port := sw.Ports[p]
	return sim.Time(int64(sw.QueueBytes(p)) * 8 * int64(sim.Second) / port.RateBps)
}

// gapFor computes the switching threshold for a flowlet pinned to port p.
func gapFor(sw *netsim.Switch, st *flowletState, p int32) sim.Time {
	gap := dynMinGap + sim.Time(dynMult*st.portEwma[p])
	if gap < dynMinGap || gap > dynMaxGap { // < dynMinGap catches overflow too
		gap = dynMaxGap
	}
	if last := sw.LastTxEnd(p); last >= 0 {
		if idle := sw.Now() - last; idle > 0 {
			gap -= idle
		}
	}
	if gap < dynMinGap {
		gap = dynMinGap
	}
	return gap
}

// observe folds port p's current drain time into its EWMA.
func observe(sw *netsim.Switch, st *flowletState, p int32) {
	s := float64(drainTime(sw, p))
	st.portEwma[p] += dynGain * (s - st.portEwma[p])
}

// Select implements netsim.Selector.
func (FlowDyn) Select(sw *netsim.Switch, pkt *netsim.Packet, eligible []int32) int32 {
	st := flowletStateOf(sw, true)
	now := sw.Now()
	e, isNew := st.lookup(pkt, now)
	if !isNew && now-e.last >= gapFor(sw, st, e.port) {
		e.draw = uint64(now) + 1
	}
	e.last = now
	st.touch(e)
	st.expire(now, retentionOf(dynMaxGap))
	e.port = flowletPort(sw, pkt, eligible, e.draw)
	observe(sw, st, e.port)
	return e.port
}
