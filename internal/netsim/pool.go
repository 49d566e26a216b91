package netsim

// PacketPool is a free list of Packet objects shared by every device of one
// simulated fabric. Transports draw packets through Host.NewPacket and the
// fabric recycles them at each packet's terminal point — after the
// destination handler's Deliver returns, or at the drop site for packets
// lost to full queues, failed links, gray links, missing routes, or a full
// shared buffer. In steady state every experiment therefore runs with a
// bounded working set of Packet objects (roughly the in-flight count) and
// zero per-packet allocation.
//
// # Ownership contract
//
// Only packets obtained from Get (Host.NewPacket) are recycled; a packet
// built with a plain composite literal passes through the fabric untouched
// and stays garbage-collected, so tests and tools that hand-craft packets
// need no changes. A pooled packet handed to Host.Send belongs to the
// fabric: the sender must not touch it again, and a Handler must not retain
// the packet or its Sacks backing array past its Deliver call. Build with
// `-tags simdebug` to turn violations (use after free, double free) into
// panics with generation diagnostics.
//
// Pools are not safe for concurrent use — like the Engine, one pool belongs
// to one simulation goroutine. Parallel experiment runs each build their own
// topology and therefore their own pool.
type PacketPool struct {
	free []*Packet

	// Gets counts allocations served (hits + misses), Misses the ones that
	// fell through to the Go heap, and Puts the packets recycled. Live
	// packets at any instant = Gets - Puts.
	Gets   int64
	Misses int64
	Puts   int64
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool {
	return &PacketPool{free: make([]*Packet, 0, 1024)}
}

// Reset zeroes the counters and keeps the free list: the pool of a fabric
// that is about to run again (see Switch.Reset). Packets the previous run
// still had checked out are not coming back; they are the collector's.
func (pl *PacketPool) Reset() {
	*pl = PacketPool{free: pl.free}
}

// Get returns a zeroed packet. A nil pool is valid and degrades to plain
// heap allocation with no recycling.
func (pl *PacketPool) Get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	pl.Gets++
	if n := len(pl.free); n > 0 {
		pkt := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pkt.debugAlloc()
		pkt.pooled = false
		return pkt
	}
	pl.Misses++
	return &Packet{owned: true}
}

// Put recycles a consumed packet. Packets not drawn from a pool (and nil)
// are ignored, so every terminal site in the fabric can call Put
// unconditionally. The Sacks backing array survives recycling, which is what
// makes SACK-carrying ACKs allocation-free after warm-up. A packet is
// consumed once its step has run: with its event still filed, the engine
// would fire the zeroed packet (`-tags simdebug` panics).
func (pl *PacketPool) Put(pkt *Packet) {
	if pl == nil || pkt == nil || !pkt.owned {
		return
	}
	if pkt.pooled {
		pkt.debugDoubleFree()
		return
	}
	pkt.debugCheckLive("PacketPool.Put")
	sacks := pkt.Sacks[:0]
	gen := pkt.gen + 1
	*pkt = Packet{Sacks: sacks, owned: true, pooled: true, gen: gen}
	pkt.debugPoison()
	pl.free = append(pl.free, pkt)
	pl.Puts++
}

// Live returns the number of packets currently checked out of the pool.
func (pl *PacketPool) Live() int64 {
	if pl == nil {
		return 0
	}
	return pl.Gets - pl.Puts
}
