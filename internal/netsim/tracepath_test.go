package netsim

import (
	"testing"

	"flowbender/internal/sim"
)

// traceFixture: host0 -> swA -> swB -> host1 with single routes.
func traceFixture(t *testing.T) (*Host, *Host, *Switch, *Switch) {
	t.Helper()
	eng := sim.NewEngine()
	rate := int64(10_000_000_000)
	cfg := SwitchConfig{}
	h0 := NewHost(eng, 0, rate, 0)
	h1 := NewHost(eng, 1, rate, 0)
	swA := NewSwitch(eng, 2, 2, rate, cfg)
	swB := NewSwitch(eng, 3, 2, rate, cfg)
	WireHost(h0, swA, 0, 0)
	WireSwitches(swA, 1, swB, 0, 0)
	WireHost(h1, swB, 1, 0)
	swA.SetRoutes([][]int32{0: {0}, 1: {1}})
	swB.SetRoutes([][]int32{0: {0}, 1: {1}})
	return h0, h1, swA, swB
}

func TestTracePathLinear(t *testing.T) {
	h0, _, _, _ := traceFixture(t)
	path, err := TracePath(h0, &Packet{Src: 0, Dst: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{0, 2, 3, 1}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestTracePathFailedLink(t *testing.T) {
	h0, _, swA, _ := traceFixture(t)
	swA.Ports[1].SetLinkDown(true)
	if _, err := TracePath(h0, &Packet{Src: 0, Dst: 1}, 0); err == nil {
		t.Fatal("trace crossed a failed link")
	}
}

func TestTracePathNoRoute(t *testing.T) {
	h0, _, swA, _ := traceFixture(t)
	swA.SetRoutes([][]int32{0: {0}, 1: {}})
	if _, err := TracePath(h0, &Packet{Src: 0, Dst: 1}, 0); err == nil {
		t.Fatal("trace found a path with no route")
	}
}

func TestTracePathLoopDetected(t *testing.T) {
	h0, _, swA, swB := traceFixture(t)
	// Point swB back at swA for dst 1: a routing loop.
	swB.SetRoutes([][]int32{0: {0}, 1: {0}})
	swA.SetRoutes([][]int32{0: {0}, 1: {1}})
	if _, err := TracePath(h0, &Packet{Src: 0, Dst: 1}, 8); err == nil {
		t.Fatal("loop not detected")
	}
}

func TestTracePathMultipathNeedsSelector(t *testing.T) {
	eng := sim.NewEngine()
	rate := int64(10_000_000_000)
	h0 := NewHost(eng, 0, rate, 0)
	h1 := NewHost(eng, 1, rate, 0)
	sw := NewSwitch(eng, 3, 3, rate, SwitchConfig{})
	WireHost(h0, sw, 0, 0)
	WireHost(h1, sw, 1, 0)
	WireHost(h1, sw, 2, 0) // two parallel links to h1
	sw.SetRoutes([][]int32{0: {0}, 1: {1, 2}})
	if _, err := TracePath(h0, &Packet{Src: 0, Dst: 1}, 0); err == nil {
		t.Fatal("multipath without selector should fail the trace")
	}
	sw.SetSelector(firstEligible{})
	path, err := TracePath(h0, &Packet{Src: 0, Dst: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
}

type firstEligible struct{}

func (firstEligible) Select(_ *Switch, _ *Packet, e []int32) int32 { return e[0] }
