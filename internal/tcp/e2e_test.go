package tcp_test

import (
	"testing"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
)

func startOn(eng *sim.Engine, cfg tcp.Config) func(id netsim.FlowID, src, dst *netsim.Host, size int64) *tcp.Flow {
	return func(id netsim.FlowID, src, dst *netsim.Host, size int64) *tcp.Flow {
		return tcp.StartFlow(eng, cfg, id, src, dst, size)
	}
}

// TestSingleFlowCompletes transfers 1 MB across the fat-tree and checks the
// completion time is in the physically sensible range.
func TestSingleFlowCompletes(t *testing.T) {
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, topo.TinyScale())
	ft.SetSelector(routing.ECMP{})

	const size = 1_000_000
	f := tcp.StartFlow(eng, tcp.DefaultConfig(), 1, ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1], size)
	eng.Run(1 * sim.Second)

	if !f.Done() {
		t.Fatalf("flow did not complete; sndUna stats: retx=%d timeouts=%d", f.Sender().Retransmits, f.Sender().Timeouts)
	}
	fct := f.FCT()
	// Line-rate lower bound: 1 MB at 10 Gbps is 800 us of serialization,
	// plus at least one RTT (~90 us) of slow-start ramp.
	if fct < 800*sim.Microsecond {
		t.Errorf("FCT %v faster than line rate", fct)
	}
	if fct > 20*sim.Millisecond {
		t.Errorf("FCT %v unreasonably slow for an idle fabric (timeouts=%d retx=%d)",
			fct, f.Sender().Timeouts, f.Sender().Retransmits)
	}
	if f.Sender().Timeouts != 0 {
		t.Errorf("unexpected timeouts on idle fabric: %d", f.Sender().Timeouts)
	}
	if f.OutOfOrder() != 0 {
		t.Errorf("unexpected out-of-order arrivals on a single path: %d", f.OutOfOrder())
	}
}

// TestFlowBenderFlowCompletes runs the same transfer with a FlowBender
// controller attached and DCTCP marking active.
func TestFlowBenderFlowCompletes(t *testing.T) {
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, topo.TinyScale())
	ft.SetSelector(routing.ECMP{})

	cfg := tcp.DefaultConfig()
	fbCfg := core.Config{RNG: sim.NewRNG(7).Fork("fb")}
	cfg.FlowBender = &fbCfg

	// Two competing long flows from the same ToR to the same remote ToR.
	src := ft.P.TorHosts(0, 0)
	dst := ft.P.TorHosts(1, 0)
	f1 := tcp.StartFlow(eng, cfg, 1, ft.Hosts[src[0]], ft.Hosts[dst[0]], 5_000_000)
	f2 := tcp.StartFlow(eng, cfg, 2, ft.Hosts[src[1]], ft.Hosts[dst[1]], 5_000_000)
	eng.Run(4 * sim.Second)

	for _, f := range []*tcp.Flow{f1, f2} {
		if !f.Done() {
			t.Fatalf("flow %d did not complete", f.ID)
		}
	}
}

// TestManyFlowsConservation checks every byte of every flow is delivered
// under all four schemes, despite drops/reordering.
func TestManyFlowsConservation(t *testing.T) {
	for _, scheme := range []string{"ecmp", "rps", "detail", "flowbender"} {
		t.Run(scheme, func(t *testing.T) {
			eng := sim.NewEngine()
			p := topo.TinyScale()
			cfg := tcp.DefaultConfig()
			var sel netsim.Selector = routing.ECMP{}
			switch scheme {
			case "rps":
				sel = &routing.RPS{RNG: sim.NewRNG(3).Fork("rps")}
			case "detail":
				sel = routing.DeTail{}
				p.PFC = &netsim.PFCConfig{Pause: 20 * topo.KB, Unpause: 10 * topo.KB}
				cfg.DisableFastRetx = true
			case "flowbender":
				fb := core.Config{RNG: sim.NewRNG(3).Fork("fb")}
				cfg.FlowBender = &fb
			}
			ft := topo.NewFatTree(eng, p)
			ft.SetSelector(sel)

			rng := sim.NewRNG(42).Fork("flows")
			var flows []*tcp.Flow
			for i := 0; i < 40; i++ {
				src := rng.Intn(len(ft.Hosts))
				dst := rng.IntnExcept(len(ft.Hosts), src)
				size := int64(2_000 + rng.Intn(400_000))
				flows = append(flows, tcp.StartFlow(eng, cfg, netsim.FlowID(i+1), ft.Hosts[src], ft.Hosts[dst], size))
			}
			eng.Run(5 * sim.Second)
			for _, f := range flows {
				if !f.Done() {
					t.Errorf("flow %d (%d bytes) incomplete: retx=%d timeouts=%d",
						f.ID, f.Size, f.Sender().Retransmits, f.Sender().Timeouts)
				}
			}
		})
	}
}
