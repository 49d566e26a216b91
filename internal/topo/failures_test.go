package topo

import (
	"testing"

	"flowbender/internal/sim"
)

func TestTestbedFailRestoreRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	lp := SmallTestbed()
	tb := NewFatTree(eng, lp)
	up := tb.TorAggLinks[0]
	if tb.DownLinks() != 0 {
		t.Fatal("fresh testbed has failed links")
	}
	setSpineDown := func(spine int, down bool) {
		for tor := 0; tor < lp.TorsPerPod; tor++ {
			up[tor][spine].AtoB.SetLinkDown(down)
			up[tor][spine].BtoA.SetLinkDown(down)
		}
	}
	setSpineDown(1, true)
	if got := tb.DownLinks(); got != lp.TorsPerPod {
		t.Fatalf("down links = %d, want %d", got, lp.TorsPerPod)
	}
	// A half-open cable elsewhere must not count as fully down.
	up[0][3].AtoB.SetLinkDown(true)
	if got := tb.DownLinks(); got != lp.TorsPerPod {
		t.Fatalf("half-open cable counted as down: %d", got)
	}
	up[0][3].AtoB.SetLinkDown(false)
	setSpineDown(1, false)
	if tb.DownLinks() != 0 {
		t.Fatal("restore incomplete")
	}
	// Round-trip again to catch state leakage between cycles.
	setSpineDown(0, true)
	setSpineDown(0, false)
	if tb.DownLinks() != 0 {
		t.Fatal("second round-trip left links down")
	}
}
