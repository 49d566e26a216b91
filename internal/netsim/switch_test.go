package netsim

import (
	"testing"

	"flowbender/internal/sim"
)

// TestSingleRouteNeedsNoSelector: deterministic next hops must forward even
// when no selector is installed.
func TestSingleRouteNeedsNoSelector(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 10, 2, 10_000_000_000, SwitchConfig{})
	dst := NewHost(eng, 1, 10_000_000_000, 0)
	WireHost(dst, sw, 1, 0)
	sw.SetRoutes([][]int32{0: {0}, 1: {1}})

	var got int
	dst.Register(5, handlerFunc(func(*Packet) { got++ }))
	sw.Receive(&Packet{Flow: 5, Dst: 1, Size: 100}, 0)
	eng.RunUntilIdle()
	if got != 1 {
		t.Fatal("single-route packet not forwarded")
	}
}

func TestSwitchNoRouteCounted(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 10, 2, 10_000_000_000, SwitchConfig{})
	sw.SetRoutes([][]int32{0: {}, 1: {1}})
	sw.Receive(&Packet{Flow: 5, Dst: 0, Size: 100}, 0)
	eng.RunUntilIdle()
	if sw.NoRoute != 1 {
		t.Fatalf("NoRoute = %d", sw.NoRoute)
	}
}

func TestPortProtoCounters(t *testing.T) {
	eng := sim.NewEngine()
	sink := &sinkDevice{id: 1, eng: eng}
	p := NewHost(eng, 0, 10_000_000_000, 0).NIC
	p.Link = Link{To: sink}
	p.Enqueue(&Packet{Proto: ProtoTCP, Size: 1000})
	p.Enqueue(&Packet{Proto: ProtoUDP, Size: 500})
	p.Enqueue(&Packet{Proto: ProtoTCP, Size: 200})
	eng.RunUntilIdle()
	if p.TxBytes(ProtoTCP) != 1200 || p.TxBytes(ProtoUDP) != 500 {
		t.Fatalf("proto counters: tcp=%d udp=%d", p.TxBytes(ProtoTCP), p.TxBytes(ProtoUDP))
	}
}

func TestQueueDoesNotRecountMarkedPackets(t *testing.T) {
	q := Queue{MarkK: 50}
	pkt := &Packet{Size: 100, ECT: true, CE: true} // already marked upstream
	q.Push(pkt)
	if q.Marked != 0 {
		t.Fatalf("pre-marked packet counted as a new mark")
	}
	if !pkt.CE {
		t.Fatal("CE lost")
	}
}

func TestQueueMaxBytesHighWater(t *testing.T) {
	var q Queue
	q.Push(&Packet{Size: 100})
	q.Push(&Packet{Size: 200})
	q.Pop()
	q.Push(&Packet{Size: 50})
	if q.MaxBytes != 300 {
		t.Fatalf("MaxBytes = %d, want 300", q.MaxBytes)
	}
}

func TestQueueCompaction(t *testing.T) {
	// Push/pop far more packets than the initial backing array to exercise
	// the lazy compaction path; FIFO order must be preserved throughout.
	var q Queue
	next := int64(0)
	seq := int64(0)
	for i := 0; i < 10_000; i++ {
		q.Push(&Packet{Seq: seq, Size: 100})
		seq++
		if i%3 != 0 {
			pkt := q.Pop()
			if pkt.Seq != next {
				t.Fatalf("FIFO violated at %d: got %d want %d", i, pkt.Seq, next)
			}
			next++
		}
	}
	for {
		pkt := q.Pop()
		if pkt == nil {
			break
		}
		if pkt.Seq != next {
			t.Fatalf("FIFO violated in drain: got %d want %d", pkt.Seq, next)
		}
		next++
	}
	if next != seq {
		t.Fatalf("drained %d, pushed %d", next, seq)
	}
}

func TestProtoString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" {
		t.Fatal("proto names wrong")
	}
	if Proto(9).String() == "" {
		t.Fatal("unknown proto has empty name")
	}
}

func TestPacketString(t *testing.T) {
	pkt := &Packet{Proto: ProtoTCP, Kind: KindData, Flow: 7, Src: 1, Dst: 2, Seq: 100, Payload: 10}
	if s := pkt.String(); s == "" {
		t.Fatal("empty packet string")
	}
	ack := &Packet{Proto: ProtoTCP, Kind: KindAck}
	if s := ack.String(); s == "" {
		t.Fatal("empty ack string")
	}
}
