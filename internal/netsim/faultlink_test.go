package netsim

import (
	"strings"
	"testing"

	"flowbender/internal/sim"
)

// duplexFixture wires two sink devices with one full-duplex cable.
func duplexFixture() (*sim.Engine, *Duplex, *sinkDevice, *sinkDevice) {
	eng := sim.NewEngine()
	a := &sinkDevice{id: 1, eng: eng}
	b := &sinkDevice{id: 2, eng: eng}
	pa := NewPort(eng, 1_000_000_000)
	pb := NewPort(eng, 1_000_000_000)
	pa.Link = Link{To: b}
	pb.Link = Link{To: a}
	return eng, &Duplex{AtoB: pa, BtoA: pb}, a, b
}

func TestDuplexHalfOpen(t *testing.T) {
	eng, d, a, b := duplexFixture()
	if d.Failed() || d.HalfOpen() {
		t.Fatal("fresh cable reports a failure")
	}
	d.FailAtoB()
	if d.Failed() {
		t.Fatal("half-open cable reported fully Failed")
	}
	if !d.HalfOpen() {
		t.Fatal("HalfOpen not reported")
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
	d.FailBtoA()
	if !d.Failed() || d.HalfOpen() {
		t.Fatal("fully cut cable misreported")
	}
	d.Restore()
	if d.Failed() || d.HalfOpen() {
		t.Fatal("restore incomplete")
	}
}

func TestDuplexFailedRequiresBothDirections(t *testing.T) {
	_, d, _, _ := duplexFixture()
	// Regression: Failed used to look only at the A->B direction, so a cut
	// of B->A alone was invisible.
	d.FailBtoA()
	if d.Failed() {
		t.Fatal("B->A-only cut reported as fully Failed")
	}
	if !d.HalfOpen() {
		t.Fatal("B->A-only cut not reported as half-open")
	}
}

func TestLinkTransitionsCounter(t *testing.T) {
	_, d, _, _ := duplexFixture()
	for i := 0; i < 3; i++ {
		d.Fail()
		d.Fail() // idempotent: no extra transition
		d.Restore()
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
	d.FailAtoB()
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
