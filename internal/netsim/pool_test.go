package netsim

import (
	"runtime"
	"testing"

	"flowbender/internal/sim"
)

func TestPacketPoolRecycle(t *testing.T) {
	pl := NewPacketPool()
	p1 := pl.Get()
	p1.Seq = 42
	p1.Sacks = append(p1.Sacks, SackBlock{Start: 1, End: 2})
	p1.CE = true
	p1.Hops = 3
	sackCap := cap(p1.Sacks)
	pl.Put(p1)

	// LIFO reuse: the same object comes back, fully zeroed, with the Sacks
	// backing array retained.
	p2 := pl.Get()
	if p2 != p1 {
		t.Fatal("pool did not recycle the freed packet")
	}
	if p2.Seq != 0 || p2.CE || p2.Hops != 0 || len(p2.Sacks) != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", p2)
	}
	if cap(p2.Sacks) != sackCap {
		t.Fatalf("Sacks capacity not retained: %d, want %d", cap(p2.Sacks), sackCap)
	}
	if pl.Gets != 2 || pl.Puts != 1 || pl.Misses != 1 || pl.Live() != 1 {
		t.Fatalf("counters: gets=%d puts=%d misses=%d live=%d", pl.Gets, pl.Puts, pl.Misses, pl.Live())
	}
}

func TestPacketPoolNilSafe(t *testing.T) {
	var pl *PacketPool
	pkt := pl.Get()
	if pkt == nil {
		t.Fatal("nil pool Get returned nil")
	}
	pl.Put(pkt) // no-op
	if pl.Live() != 0 {
		t.Fatal("nil pool Live != 0")
	}
}

// Packets built with composite literals (tests, tools, udp.Probe) must pass
// through pooled fabrics untouched: Put ignores them.
func TestPacketPoolIgnoresForeignPackets(t *testing.T) {
	pl := NewPacketPool()
	foreign := &Packet{Seq: 9}
	pl.Put(foreign)
	if pl.Puts != 0 || foreign.Seq != 9 {
		t.Fatalf("pool recycled a foreign packet (puts=%d, seq=%d)", pl.Puts, foreign.Seq)
	}
}

func TestPacketPoolDoubleFree(t *testing.T) {
	if sim.Debug {
		t.Skip("simdebug panics on double free (TestSimdebugPacketTripwires)")
	}
	pl := NewPacketPool()
	pkt := pl.Get()
	pl.Put(pkt)
	pl.Put(pkt) // release builds: ignored, free list stays consistent
	if pl.Puts != 1 {
		t.Fatalf("double free recorded twice (puts=%d)", pl.Puts)
	}
	a, b := pl.Get(), pl.Get()
	if a == b {
		t.Fatal("double free aliased two live packets")
	}
}

// End-to-end recycling through a minimal pooled fabric: host -> switch ->
// host, with the delivered packet recycled after the handler returns and the
// pool's live count returning to zero.
func TestFabricRecyclesPackets(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPacketPool()
	src := NewHost(eng, 0, 10_000_000_000, 0)
	dst := NewHost(eng, 1, 10_000_000_000, 0)
	sw := NewSwitch(eng, 2, 2, 10_000_000_000, SwitchConfig{})
	WireHost(src, sw, 0, sim.Microsecond)
	WireHost(dst, sw, 1, sim.Microsecond)
	sw.SetRoutes([][]int32{{0}, {1}})
	src.UsePool(pl)
	dst.UsePool(pl)
	sw.UsePool(pl)

	delivered := 0
	dst.Register(7, handlerFunc(func(pkt *Packet) {
		if pkt.Seq != int64(delivered)*100 {
			t.Errorf("payload corrupted: seq=%d, want %d", pkt.Seq, delivered*100)
		}
		delivered++
	}))
	for i := 0; i < 50; i++ {
		pkt := src.NewPacket()
		pkt.Flow = 7
		pkt.Dst = 1
		pkt.Seq = int64(i) * 100
		pkt.Size = 1000
		src.Send(pkt)
		eng.RunUntilIdle()
	}
	if delivered != 50 {
		t.Fatalf("delivered %d packets, want 50", delivered)
	}
	if pl.Live() != 0 {
		t.Fatalf("pool leaked: %d packets still live", pl.Live())
	}
	// Sequential sends reuse one warm packet: only the first Get misses.
	if pl.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (recycling broken)", pl.Misses)
	}
}

// Packets dropped inside the fabric (full queue, down link, gray link, no
// route) must be recycled at the drop site, not leaked.
func TestDropSitesRecyclePackets(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPacketPool()
	src := NewHost(eng, 0, 10_000_000_000, 0)
	dst := NewHost(eng, 1, 10_000_000_000, 0)
	sw := NewSwitch(eng, 2, 2, 10_000_000_000, SwitchConfig{QueueCap: 1500})
	WireHost(src, sw, 0, 0)
	WireHost(dst, sw, 1, 0)
	sw.SetRoutes([][]int32{{0}, {1}})
	src.UsePool(pl)
	dst.UsePool(pl)
	sw.UsePool(pl)

	dst.Register(7, handlerFunc(func(*Packet) {}))

	// Queue overflow: a slow egress port makes the burst overrun the
	// 1500-byte cap.
	sw.Ports[1].RateBps = 1_000_000_000
	for i := 0; i < 10; i++ {
		pkt := src.NewPacket()
		pkt.Flow = 7
		pkt.Dst = 1
		pkt.Size = 1000
		src.Send(pkt)
	}
	eng.RunUntilIdle()
	if sw.Ports[1].Q.Dropped == 0 {
		t.Fatal("expected queue drops")
	}
	if pl.Live() != 0 {
		t.Fatalf("queue drops leaked %d packets", pl.Live())
	}

	// Down link.
	sw.Ports[1].SetLinkDown(true)
	pkt := src.NewPacket()
	pkt.Flow = 7
	pkt.Dst = 1
	pkt.Size = 1000
	src.Send(pkt)
	eng.RunUntilIdle()
	if sw.Ports[1].Link.DroppedDown != 1 || pl.Live() != 0 {
		t.Fatalf("down-link drop leaked (droppedDown=%d live=%d)",
			sw.Ports[1].Link.DroppedDown, pl.Live())
	}
	sw.Ports[1].SetLinkDown(false)

	// Gray link.
	sw.Ports[1].SetLinkDropFn(func(*Packet) bool { return true })
	pkt = src.NewPacket()
	pkt.Flow = 7
	pkt.Dst = 1
	pkt.Size = 1000
	src.Send(pkt)
	eng.RunUntilIdle()
	if sw.Ports[1].Link.DroppedGray != 1 || pl.Live() != 0 {
		t.Fatalf("gray drop leaked (droppedGray=%d live=%d)",
			sw.Ports[1].Link.DroppedGray, pl.Live())
	}
	sw.Ports[1].SetLinkDropFn(nil)

	// No route.
	sw.SetRoutes([][]int32{{0}, {}})
	pkt = src.NewPacket()
	pkt.Flow = 7
	pkt.Dst = 1
	pkt.Size = 1000
	src.Send(pkt)
	eng.RunUntilIdle()
	if sw.NoRoute != 1 || pl.Live() != 0 {
		t.Fatalf("no-route drop leaked (noRoute=%d live=%d)", sw.NoRoute, pl.Live())
	}
}

// Under -tags simdebug, retaining a pooled packet past its terminal point
// and re-injecting it panics at the fabric entry points.
func TestSimdebugPacketTripwires(t *testing.T) {
	if !sim.Debug {
		t.Skip("requires -tags simdebug")
	}
	eng := sim.NewEngine()
	pl := NewPacketPool()
	h := NewHost(eng, 0, 10_000_000_000, 0)
	h.UsePool(pl)
	h.Register(1, handlerFunc(func(*Packet) {}))

	pkt := h.NewPacket()
	pkt.Flow = 1
	h.Receive(pkt, 0) // delivered synchronously, then recycled

	mustPanicNetsim(t, "Send of recycled packet", func() { h.Send(pkt) })
	mustPanicNetsim(t, "Receive of recycled packet", func() { h.Receive(pkt, 0) })
	mustPanicNetsim(t, "Enqueue of recycled packet", func() { h.NIC.Enqueue(pkt) })
	mustPanicNetsim(t, "double free", func() { pl.Put(pkt) })
}

// Under -tags simdebug, a packet or a port whose own event is still filed
// cannot be recycled, handed to the fabric again or reset: the engine would
// fire a zeroed object, or the object would have two pending events. Once
// the engine is reset, nothing is filed and all of it goes through.
func TestSimdebugEmbeddedEventTripwires(t *testing.T) {
	if !sim.Debug {
		t.Skip("requires -tags simdebug")
	}
	eng := sim.NewEngine()
	pl := NewPacketPool()

	// A packet waiting out a host's ingress delay.
	h := NewHost(eng, 0, 10_000_000_000, sim.Microsecond)
	h.UsePool(pl)
	h.Register(1, handlerFunc(func(*Packet) {}))
	pkt := h.NewPacket()
	pkt.Flow = 1
	h.Receive(pkt, 0)
	mustPanicNetsim(t, "Put of a packet whose step is filed", func() { pl.Put(pkt) })
	mustPanicNetsim(t, "Send of a packet whose step is filed", func() { h.Send(pkt) })

	// A NIC and a switch port with their completions armed: neither a host
	// with no delay nor a switch with no pipeline times a transmission ahead.
	nic := NewHost(eng, 1, 10_000_000_000, 0)
	nic.Send(&Packet{Dst: 2, Size: 1500})
	sw := NewSwitch(eng, 2, 2, 10_000_000_000, SwitchConfig{})
	sw.SetRoutes([][]int32{{0}, {1}})
	sw.Receive(&Packet{Dst: 1, Size: 1500}, 0)
	if !nic.NIC.tx.Filed() || !sw.Ports[1].tx.Filed() {
		t.Fatalf("completions not armed: NIC %v, switch port %v", nic.NIC.tx.Filed(), sw.Ports[1].tx.Filed())
	}
	mustPanicNetsim(t, "Host.Reset with the NIC's completion filed", func() { nic.Reset(10_000_000_000, 0) })
	mustPanicNetsim(t, "Switch.Reset with a port's completion filed", func() { sw.Reset(10_000_000_000, SwitchConfig{}) })
	mustPanicNetsim(t, "Port.init with its completion filed", func() { sw.Ports[1].init(10_000_000_000, false, 0, 0, nil) })

	eng.Reset()
	pl.Put(pkt)
	nic.Reset(10_000_000_000, 0)
	sw.Reset(10_000_000_000, SwitchConfig{})
	if pl.Live() != 0 {
		t.Fatalf("%d packets live after the reset", pl.Live())
	}
}

// idleOwner embeds an event that does nothing.
type idleOwner struct{ ev sim.Event }

func (*idleOwner) Fire() {}

// A packet crossing a warm fabric takes nothing from the engine's free list:
// its hop steps are the packet's own event, and a port's completion is the
// port's. The free list is emptied first — pooled events parked a second out
// hold every object it had — so a pooled event would be an allocation here
// (counted by hand: testing.AllocsPerRun's warm-up call would refill the
// list). Both paths: ports that time transmissions ahead, and a PFC fabric
// where every port and NIC runs its completion event and every send its
// egress step.
func TestWarmFabricTakesNoPooledEvent(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SwitchConfig
	}{
		{"ledger", SwitchConfig{QueueCap: 200000, MarkK: 30000, FwdDelay: sim.Microsecond}},
		{"completion events", SwitchConfig{FwdDelay: sim.Microsecond, PFC: &PFCConfig{Pause: 100000, Unpause: 50000}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			src, dst, _ := hoChain(eng, tc.cfg, 2, 3, 4)
			pl := NewPacketPool()
			src.UsePool(pl)
			dst.UsePool(pl)
			delivered := 0
			dst.Register(1, handlerFunc(func(*Packet) { delivered++ }))
			send := func() {
				for i := 0; i < 3; i++ {
					pkt := src.NewPacket()
					pkt.Flow, pkt.Src, pkt.Dst, pkt.Size = 1, 0, 1, 1500
					src.Send(pkt)
				}
				eng.Run(eng.Now() + 100*sim.Microsecond)
			}
			// Warm: the pool's packets, the ledgers' rings, and a FIFO that
			// only stops growing once it has compacted (Queue.Pop).
			for i := 0; i < 40; i++ {
				send()
			}
			before := eng.Executed
			// An embedded event at the clock keeps the cursor there, so the
			// parked events wait beyond the horizon, as a run's timers do,
			// instead of taking the cursor out to them; one a tick, so that
			// a Run peeking past its end takes one of them into the due heap,
			// not all.
			anchor := &idleOwner{}
			eng.FileAt(&anchor.ev, eng.Now(), eng.Now(), sim.TagNone, anchor)
			for n := eng.Snapshot().Seq; n > 0; n-- {
				eng.Schedule(sim.Second+sim.Time(n)*sim.Microsecond, func() {})
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < 10; i++ {
				send()
			}
			runtime.ReadMemStats(&m1)
			if n := m1.Mallocs - m0.Mallocs; n != 0 {
				t.Fatalf("a warm fabric allocates %d times for thirty packets", n)
			}
			if delivered != 3*50 || pl.Live() != 0 {
				t.Fatalf("delivered %d packets with %d live, want 150 and 0", delivered, pl.Live())
			}
			if perPacket := (eng.Executed - before) / 30; perPacket < 4 {
				t.Fatalf("%d events a packet: the measured sends did not cross the fabric", perPacket)
			}
		})
	}
}

// Under -tags simdebug, settling the ledger at the wrong time panics: booking
// the record on the wire before its end would free the transmitter and count
// the packet early, and recalling a record once its end has passed would take
// back a packet the peer may already have forwarded.
func TestSimdebugHandOffTripwires(t *testing.T) {
	if !sim.Debug {
		t.Skip("requires -tags simdebug")
	}
	eng := sim.NewEngine()
	src, dst, _ := hoChain(eng, SwitchConfig{FwdDelay: sim.Microsecond}, 2)
	delivered := 0
	dst.Register(1, handlerFunc(func(*Packet) { delivered++ }))
	src.Send(&Packet{Flow: 1, Src: 0, Dst: 1, Size: 1500})
	src.Send(&Packet{Flow: 1, Src: 0, Dst: 1, Size: 1500})

	nic := src.NIC
	eng.Run(20*sim.Microsecond + 600*sim.Nanosecond) // halfway through the first serialization
	if nic.TxPackets() != 0 || len(nic.ledger()) != 2 {
		t.Fatalf("NIC's ledger holds %d records (busy=%v armed=%v), want one on the wire and a follower", len(nic.ledger()), nic.busy, nic.armed)
	}
	mustPanicNetsim(t, "booking a record before its end", nic.book)
	eng.RunUntilIdle()
	if delivered != 2 || len(nic.ledger()) != 2 {
		t.Fatalf("delivered %d; NIC settled by nobody yet holds %d records", delivered, len(nic.ledger()))
	}
	for _, r := range nic.ledger() {
		mustPanicNetsim(t, "recalling a record after the peer's event fired", func() { nic.recall(r) })
	}
	if nic.TxPackets() != 2 {
		t.Fatalf("TxPackets = %d after the tripwires", nic.TxPackets())
	}
}

func mustPanicNetsim(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}
