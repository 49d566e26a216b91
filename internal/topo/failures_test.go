package topo

import (
	"testing"

	"flowbender/internal/sim"
)

func TestLeafSpineFailRestoreRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	lp := SmallTestbed()
	ls := NewLeafSpine(eng, lp)
	if ls.DownLinks() != 0 {
		t.Fatal("fresh leaf-spine has failed links")
	}
	setSpineDown := func(spine int, down bool) {
		for tor := 0; tor < lp.Tors; tor++ {
			if down {
				ls.UpLinks[tor][spine].Fail()
			} else {
				ls.UpLinks[tor][spine].Restore()
			}
		}
	}
	setSpineDown(1, true)
	if got := ls.DownLinks(); got != lp.Tors {
		t.Fatalf("down links = %d, want %d", got, lp.Tors)
	}
	// A half-open cable elsewhere must not count as fully down.
	ls.UpLinks[0][3].FailAtoB()
	if got := ls.DownLinks(); got != lp.Tors {
		t.Fatalf("half-open cable counted as down: %d", got)
	}
	if !ls.UpLinks[0][3].HalfOpen() {
		t.Fatal("half-open state lost")
	}
	ls.UpLinks[0][3].Restore()
	setSpineDown(1, false)
	if ls.DownLinks() != 0 {
		t.Fatal("restore incomplete")
	}
	// Round-trip again to catch state leakage between cycles.
	setSpineDown(0, true)
	setSpineDown(0, false)
	if ls.DownLinks() != 0 {
		t.Fatal("second round-trip left links down")
	}
}
