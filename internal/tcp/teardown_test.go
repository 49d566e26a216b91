package tcp_test

import (
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
)

// TestFlowTeardownReleasesHandlers churns many short sequential flows between
// one host pair and checks completed flows release their dispatch slots after
// the 2x RTOMax quiet period: host handler counts must track live flows, not
// total flows ever started.
func TestFlowTeardownReleasesHandlers(t *testing.T) {
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, topo.TinyScale())
	ft.SetSelector(routing.ECMP{})
	src, dst := ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1]

	// Flows start RTOMax/5 apart, so about ten of them sit inside one
	// quiet period (2x RTOMax).
	const flows, spacing = 50, tcp.RTOMax / 5
	var peak int
	for i := 0; i < flows; i++ {
		f := tcp.StartFlow(eng, tcp.DefaultConfig(), netsim.FlowID(i+1), src, dst, 50_000)
		eng.Run(eng.Now() + spacing)
		if !f.Done() {
			t.Fatalf("flow %d incomplete after %v", i, spacing)
		}
		if n := src.HandlerCount() + dst.HandlerCount(); n > peak {
			peak = n
		}
	}
	// Handlers outlive completion by the quiet period, so a few flows'
	// worth may coexist — but the peak must be far below the total churned.
	if peak >= flows {
		t.Fatalf("handler peak %d not bounded by live flows (churned %d)", peak, flows)
	}

	// After the last quiet period expires every slot must be released.
	eng.Run(eng.Now() + 3*tcp.RTOMax)
	if n := src.HandlerCount(); n != 0 {
		t.Errorf("src still holds %d handlers after teardown", n)
	}
	if n := dst.HandlerCount(); n != 0 {
		t.Errorf("dst still holds %d handlers after teardown", n)
	}
}
