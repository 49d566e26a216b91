package netsim

import (
	"testing"
	"testing/quick"

	"flowbender/internal/sim"
)

func TestQueuePushPopFIFO(t *testing.T) {
	var q Queue
	for i := 0; i < 100; i++ {
		if !q.Push(&Packet{Seq: int64(i), Size: 100}) {
			t.Fatal("unbounded queue rejected a packet")
		}
	}
	if q.Bytes() != 100*100 || q.Len() != 100 {
		t.Fatalf("bytes=%d len=%d", q.Bytes(), q.Len())
	}
	for i := 0; i < 100; i++ {
		pkt := q.Pop()
		if pkt == nil || pkt.Seq != int64(i) {
			t.Fatalf("pop %d returned %v", i, pkt)
		}
	}
	if q.Pop() != nil || !q.Empty() {
		t.Fatal("queue not empty at end")
	}
}

func TestQueueDropTail(t *testing.T) {
	q := Queue{Cap: 250}
	if !q.Push(&Packet{Size: 100}) || !q.Push(&Packet{Size: 100}) {
		t.Fatal("packets within capacity rejected")
	}
	if q.Push(&Packet{Size: 100}) {
		t.Fatal("over-capacity packet accepted")
	}
	if q.Dropped != 1 {
		t.Fatalf("Dropped = %d", q.Dropped)
	}
	// A smaller packet that fits is still accepted (byte, not slot, limit).
	if !q.Push(&Packet{Size: 50}) {
		t.Fatal("fitting packet rejected after a drop")
	}
}

func TestQueueECNMarking(t *testing.T) {
	q := Queue{MarkK: 150}
	p1 := &Packet{Size: 100, ECT: true}
	q.Push(p1)
	if p1.CE {
		t.Fatal("marked below threshold")
	}
	p2 := &Packet{Size: 100, ECT: true}
	q.Push(p2)
	if !p2.CE {
		t.Fatal("not marked above threshold")
	}
	p3 := &Packet{Size: 100} // not ECN-capable
	q.Push(p3)
	if p3.CE {
		t.Fatal("non-ECT packet marked")
	}
	if q.Marked != 1 {
		t.Fatalf("Marked = %d", q.Marked)
	}
}

// Property: queue byte accounting is exact under any push/pop sequence.
func TestQueueAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q Queue
		want := 0
		n := 0
		for _, op := range ops {
			if op%3 == 0 && n > 0 {
				pkt := q.Pop()
				want -= pkt.Size
				n--
			} else {
				size := int(op)%1400 + 40
				q.Push(&Packet{Size: size})
				want += size
				n++
			}
			if q.Bytes() != want || q.Len() != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sinkDevice records arrivals for link tests.
type sinkDevice struct {
	id  NodeID
	got []*Packet
	at  []sim.Time
	eng *sim.Engine
}

func (d *sinkDevice) ID() NodeID { return d.id }
func (d *sinkDevice) Receive(pkt *Packet, _ int) {
	d.got = append(d.got, pkt)
	d.at = append(d.at, d.eng.Now())
}

func TestPortSerialization(t *testing.T) {
	eng := sim.NewEngine()
	sink := &sinkDevice{id: 1, eng: eng}
	p := NewHost(eng, 0, 1_000_000_000, 0).NIC // 1 Gbps: 1000-byte packet = 8 us
	p.Link = Link{To: sink, Delay: 2 * sim.Microsecond}

	p.Enqueue(&Packet{Size: 1000})
	p.Enqueue(&Packet{Size: 1000})
	eng.RunUntilIdle()

	if len(sink.got) != 2 {
		t.Fatalf("delivered %d packets", len(sink.got))
	}
	// First: 8 us serialization + 2 us propagation; second queued behind.
	if sink.at[0] != 10*sim.Microsecond {
		t.Fatalf("first arrival at %v, want 10us", sink.at[0])
	}
	if sink.at[1] != 18*sim.Microsecond {
		t.Fatalf("second arrival at %v, want 18us", sink.at[1])
	}
	if p.TxPackets() != 2 || p.TxBytes(ProtoTCP) != 2000 {
		t.Fatalf("counters: pkts=%d bytes=%d", p.TxPackets(), p.TxBytes(ProtoTCP))
	}
}

func TestPortPause(t *testing.T) {
	eng := sim.NewEngine()
	sink := &sinkDevice{id: 1, eng: eng}
	p := NewHost(eng, 0, 1_000_000_000, 0).NIC
	p.Link = Link{To: sink}
	p.SetPaused(true)
	p.Enqueue(&Packet{Size: 1000})
	eng.RunUntilIdle()
	if len(sink.got) != 0 {
		t.Fatal("paused port transmitted")
	}
	p.SetPaused(false)
	eng.RunUntilIdle()
	if len(sink.got) != 1 {
		t.Fatal("resumed port did not transmit")
	}
}

func TestPauseFinishesCurrentPacket(t *testing.T) {
	eng := sim.NewEngine()
	sink := &sinkDevice{id: 1, eng: eng}
	p := NewHost(eng, 0, 1_000_000_000, 0).NIC
	p.Link = Link{To: sink}
	p.Enqueue(&Packet{Size: 1000, Seq: 1})
	p.Enqueue(&Packet{Size: 1000, Seq: 2})
	// Pause mid-serialization of packet 1.
	eng.Schedule(4*sim.Microsecond, func() { p.SetPaused(true) })
	eng.Run(sim.Second)
	if len(sink.got) != 1 || sink.got[0].Seq != 1 {
		t.Fatalf("in-flight packet handling wrong: %d delivered", len(sink.got))
	}
}

func TestLinkDownDropsPackets(t *testing.T) {
	eng := sim.NewEngine()
	sink := &sinkDevice{id: 1, eng: eng}
	p := NewHost(eng, 0, 1_000_000_000, 0).NIC
	p.Link = Link{To: sink}
	p.SetLinkDown(true)
	p.Enqueue(&Packet{Size: 1000})
	eng.RunUntilIdle()
	if len(sink.got) != 0 {
		t.Fatal("down link delivered a packet")
	}
	if p.Link.DroppedDown != 1 {
		t.Fatalf("DroppedDown = %d", p.Link.DroppedDown)
	}
}

func TestHostDemux(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 7, 10_000_000_000, 0)
	var got []*Packet
	h.Register(42, handlerFunc(func(pkt *Packet) { got = append(got, pkt) }))
	h.Receive(&Packet{Flow: 42}, 0)
	h.Receive(&Packet{Flow: 43}, 0) // unclaimed
	eng.RunUntilIdle()
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if h.Unclaimed != 1 {
		t.Fatalf("Unclaimed = %d", h.Unclaimed)
	}
	h.Unregister(42)
	h.Receive(&Packet{Flow: 42}, 0)
	eng.RunUntilIdle()
	if h.Unclaimed != 2 {
		t.Fatal("unregister did not take effect")
	}
}

func TestHostDuplicateRegisterPanics(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 7, 10_000_000_000, 0)
	h.Register(1, handlerFunc(func(*Packet) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	h.Register(1, handlerFunc(func(*Packet) {}))
}

func TestHostDelayApplied(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 7, 10_000_000_000, 20*sim.Microsecond)
	var deliveredAt sim.Time = -1
	h.Register(1, handlerFunc(func(*Packet) { deliveredAt = eng.Now() }))
	h.Receive(&Packet{Flow: 1}, 0)
	eng.RunUntilIdle()
	if deliveredAt != 20*sim.Microsecond {
		t.Fatalf("delivered at %v, want 20us", deliveredAt)
	}
}

type handlerFunc func(*Packet)

func (f handlerFunc) Deliver(pkt *Packet) { f(pkt) }
