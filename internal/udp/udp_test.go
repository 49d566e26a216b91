package udp

import (
	"testing"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

func hostPair(eng *sim.Engine) (*netsim.Host, *netsim.Host) {
	a := netsim.NewHost(eng, 0, 10_000_000_000, 0)
	b := netsim.NewHost(eng, 1, 10_000_000_000, 0)
	a.NIC.Link = netsim.Link{To: b}
	b.NIC.Link = netsim.Link{To: a}
	return a, b
}

func TestSenderRate(t *testing.T) {
	eng := sim.NewEngine()
	a, b := hostPair(eng)
	s := NewSender(eng, 1, a, b, 6_000_000_000, 1460)
	sink := NewSink()
	b.Register(1, sink)
	s.Start()
	eng.Run(10 * sim.Millisecond)
	s.Stop()
	eng.Run(20 * sim.Millisecond)

	// 6 Gbps of 1500-byte wire datagrams over 10 ms = 7.5 MB.
	gotBps := float64(sink.Packets*1500*8) / 0.010
	if gotBps < 5.8e9 || gotBps > 6.2e9 {
		t.Fatalf("delivered rate %.2f Gbps, want ~6", gotBps/1e9)
	}
	if sink.Bytes != sink.Packets*1460 {
		t.Fatalf("payload accounting wrong: %d bytes, %d pkts", sink.Bytes, sink.Packets)
	}
	if sink.OutOfOrder != 0 {
		t.Fatal("single-path UDP reordered")
	}
}

func TestSenderStop(t *testing.T) {
	eng := sim.NewEngine()
	a, b := hostPair(eng)
	s := NewSender(eng, 1, a, b, 1_000_000_000, 1460)
	b.Register(1, NewSink())
	s.Start()
	eng.Run(sim.Millisecond)
	sent := s.Sent
	s.Stop()
	eng.Run(10 * sim.Millisecond)
	if s.Sent != sent {
		t.Fatalf("sender kept transmitting after Stop: %d -> %d", sent, s.Sent)
	}
}

// tagWatch counts the path-tag changes between consecutive datagrams before
// handing each to the sink. The host pair is one wire, so datagrams arrive
// in the order they were sent.
type tagWatch struct {
	*Sink
	last    uint32
	changes int64
}

func (w *tagWatch) Deliver(pkt *netsim.Packet) {
	if w.Packets > 0 && pkt.PathTag != w.last {
		w.changes++
	}
	w.last = pkt.PathTag
	w.Sink.Deliver(pkt)
}

func TestSprayerChangesTags(t *testing.T) {
	eng := sim.NewEngine()
	a, b := hostPair(eng)
	s := NewSender(eng, 1, a, b, 2_000_000_000, 1460)
	s.Sprayer = core.NewSprayer(8, 16*1024, sim.NewRNG(1))
	w := &tagWatch{Sink: NewSink()}
	b.Register(1, w)
	s.Start()
	eng.Run(2 * sim.Millisecond)
	s.Stop()
	eng.RunUntilIdle()
	// A 16 KiB burst is twelve 1460-byte datagrams, and the random sprayer
	// never redraws the tag it holds: one change per twelve datagrams.
	if want := (w.Packets - 1) / 12; w.changes != want || want < 10 {
		t.Fatalf("tags changed %d times over %d datagrams, want %d (at least 10)", w.changes, w.Packets, want)
	}
}

func TestSinkOutOfOrderAccounting(t *testing.T) {
	sink := NewSink()
	sink.Deliver(&netsim.Packet{Seq: 0, Payload: 100})
	sink.Deliver(&netsim.Packet{Seq: 200, Payload: 100})
	sink.Deliver(&netsim.Packet{Seq: 100, Payload: 100}) // late
	if sink.OutOfOrder != 1 {
		t.Fatalf("OutOfOrder = %d", sink.OutOfOrder)
	}
	if sink.Packets != 3 || sink.Bytes != 300 {
		t.Fatalf("counters wrong: %+v", sink)
	}
}
