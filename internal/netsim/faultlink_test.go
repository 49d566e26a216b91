package netsim

import (
	"strings"
	"testing"

	"flowbender/internal/sim"
)

// duplexFixture wires two sink devices with one full-duplex cable. The ports
// are the NICs of hosts with no processing delay, which feed them through
// Enqueue: a port with nothing in front of it.
func duplexFixture() (*sim.Engine, *Duplex, *sinkDevice, *sinkDevice) {
	eng := sim.NewEngine()
	a := &sinkDevice{id: 1, eng: eng}
	b := &sinkDevice{id: 2, eng: eng}
	pa := NewHost(eng, 0, 1_000_000_000, 0).NIC
	pb := NewHost(eng, 0, 1_000_000_000, 0).NIC
	pa.Link = Link{To: b}
	pb.Link = Link{To: a}
	return eng, &Duplex{AtoB: pa, BtoA: pb}, a, b
}

func TestDuplexHalfOpen(t *testing.T) {
	eng, d, a, b := duplexFixture()
	d.AtoB.SetLinkDown(true)
	if !d.AtoB.Link.Down || d.BtoA.Link.Down {
		t.Fatal("cutting A->B did not cut that direction alone")
	}
	// Traffic still flows B->A but not A->B.
	d.AtoB.Enqueue(&Packet{Size: 100})
	d.BtoA.Enqueue(&Packet{Size: 100})
	eng.RunUntilIdle()
	if len(b.got) != 0 {
		t.Fatal("packet crossed the cut direction")
	}
	if len(a.got) != 1 {
		t.Fatal("packet lost on the healthy direction")
	}
	if d.AtoB.Link.DroppedDown != 1 {
		t.Fatalf("DroppedDown = %d", d.AtoB.Link.DroppedDown)
	}
	d.AtoB.SetLinkDown(false)
	if d.AtoB.Link.Down || d.BtoA.Link.Down {
		t.Fatal("restore incomplete")
	}
}

func TestLinkTransitionsCounter(t *testing.T) {
	_, d, _, _ := duplexFixture()
	for i := 0; i < 3; i++ {
		for _, p := range []*Port{d.AtoB, d.BtoA} {
			p.SetLinkDown(true)
			p.SetLinkDown(true) // idempotent: no extra transition
			p.SetLinkDown(false)
		}
	}
	if got := d.AtoB.Link.Transitions; got != 6 {
		t.Fatalf("A->B transitions = %d, want 6", got)
	}
	if got := d.BtoA.Link.Transitions; got != 6 {
		t.Fatalf("B->A transitions = %d, want 6", got)
	}
}

func TestLinkGrayDrop(t *testing.T) {
	eng, d, _, b := duplexFixture()
	// Deterministic 1-in-3 drop pattern.
	n := 0
	d.AtoB.SetLinkDropFn(func(*Packet) bool {
		n++
		return n%3 == 0
	})
	for i := 0; i < 9; i++ {
		d.AtoB.Enqueue(&Packet{Size: 100})
	}
	eng.RunUntilIdle()
	if len(b.got) != 6 {
		t.Fatalf("delivered %d packets, want 6", len(b.got))
	}
	if d.AtoB.Link.DroppedGray != 3 {
		t.Fatalf("DroppedGray = %d, want 3", d.AtoB.Link.DroppedGray)
	}
	// A down link drops before the gray hook is consulted.
	d.AtoB.SetLinkDown(true)
	d.AtoB.Enqueue(&Packet{Size: 100})
	eng.RunUntilIdle()
	if d.AtoB.Link.DroppedGray != 3 || d.AtoB.Link.DroppedDown != 1 {
		t.Fatalf("down-link drop misattributed: gray=%d down=%d",
			d.AtoB.Link.DroppedGray, d.AtoB.Link.DroppedDown)
	}
}

func TestTracePathNamesDownDirection(t *testing.T) {
	h0, _, swA, _ := traceFixture(t)
	swA.Ports[1].SetLinkDown(true)
	_, err := TracePath(h0, &Packet{Src: 0, Dst: 1}, 0)
	if err == nil {
		t.Fatal("trace crossed a failed link")
	}
	// swA (id 2) -> swB (id 3) is the direction that is down.
	if !strings.Contains(err.Error(), "2->3") {
		t.Fatalf("error does not name the down direction: %v", err)
	}
}
