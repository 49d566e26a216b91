package routing

import (
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// sink is a link end that swallows every packet.
type sink struct{}

func (sink) ID() netsim.NodeID           { return 99 }
func (sink) Receive(*netsim.Packet, int) {}

// TestFlowDynGapClamp pins FlowDyn's switching gap: dynMinGap plus dynMult
// times the port's drain-time estimate, capped at dynMaxGap (an estimate
// too large for sim.Time included), less the time the port has been idle,
// never below dynMinGap.
func TestFlowDynGapClamp(t *testing.T) {
	const us = sim.Microsecond
	for _, c := range []struct {
		name string
		ewma float64  // the port's drain-time estimate, ns
		idle sim.Time // since the port last finished a packet; -1 = never sent
		want sim.Time
	}{
		{"empty queue", 0, -1, 20 * us},
		{"within the clamp", 100e3, -1, 220 * us},
		{"large estimate", 10e6, -1, sim.Millisecond},
		{"overflowing estimate", 1e30, -1, sim.Millisecond},
		{"idle port, empty queue", 0, 50 * us, 20 * us},
		{"idle subtracted", 100e3, 50 * us, 170 * us},
		{"idle subtracted from the cap", 10e6, 300 * us, 700 * us},
		{"idle floored at the minimum", 100e3, 500 * us, 20 * us},
	} {
		eng := sim.NewEngine()
		sw := netsim.NewSwitch(eng, 1, 1, 10_000_000_000, netsim.SwitchConfig{})
		sw.Ports[0].Link = netsim.Link{To: sink{}}
		sw.SetRoutes([][]int32{{0}})
		if c.idle >= 0 {
			sw.Receive(&netsim.Packet{Size: 1500}, 0)
			eng.RunUntilIdle()
			last := sw.LastTxEnd(0)
			if last < 0 {
				t.Fatalf("%s: the port sent nothing", c.name)
			}
			eng.Run(last + c.idle)
		}
		st := flowletStateOf(sw, true)
		st.portEwma[0] = c.ewma
		if got := gapFor(sw, st, 0); got != c.want {
			t.Errorf("%s: gap %v, want %v", c.name, got, c.want)
		}
	}
}
