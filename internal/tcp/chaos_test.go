package tcp

import (
	"testing"
	"testing/quick"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// TestChaosNetworkProperty subjects transfers to random drop, duplication,
// and delay-reordering at once and asserts the only thing that matters:
// every flow still delivers its full byte stream, under both stack variants
// (plain, FlowBender).
func TestChaosNetworkProperty(t *testing.T) {
	f := func(seed int64, dropPct, dupPct, delayPct uint8, variant uint8) bool {
		drop := float64(dropPct%10) / 100   // 0-9%
		dup := float64(dupPct%5) / 100      // 0-4%
		delay := float64(delayPct%20) / 100 // 0-19%

		eng := sim.NewEngine()
		a, b, tm := pipe(eng)
		rng := sim.NewRNG(seed)
		tm.drop = func(pkt *netsim.Packet) bool {
			r := rng.Float64()
			switch {
			case r < drop:
				return true
			case r < drop+dup:
				cp := *pkt
				eng.Schedule(20*sim.Microsecond, func() { tm.Receive(&cp, 0) })
				return false
			case r < drop+dup+delay:
				cp := *pkt
				eng.Schedule(sim.Time(rng.Intn(200))*sim.Microsecond, func() {
					if cp.Dst == tm.a.ID() {
						tm.a.Receive(&cp, 0)
					} else {
						tm.b.Receive(&cp, 0)
					}
				})
				return true
			}
			return false
		}

		cfg := DefaultConfig()
		if variant%2 == 1 {
			cfg.FlowBender = &core.Config{RNG: sim.NewRNG(seed).Fork("fb")}
		}
		flow := StartFlow(eng, cfg, 1, a, b, 300_000)
		eng.Run(120 * sim.Second)
		return flow.Done()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosManyFlowsOnFabric runs a burst of flows through the fat-tree
// while an adversarial schedule cuts and restores a core link; everything
// must still complete.
func TestChaosManyFlowsOnFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	eng := sim.NewEngine()
	// Import cycle avoidance: the fat-tree lives in topo, which tcp must not
	// import in non-test code — but the e2e test file already builds one via
	// the external test package. Here, hand-build a two-switch fabric with
	// two parallel paths instead.
	const rate = 10_000_000_000
	cfgSw := netsim.SwitchConfig{QueueCap: 1 << 20, MarkK: 90_000, FwdDelay: sim.Microsecond}
	left := netsim.NewSwitch(eng, 100, 4, rate, cfgSw)
	right := netsim.NewSwitch(eng, 101, 4, rate, cfgSw)
	hosts := make([]*netsim.Host, 4)
	for i := range hosts {
		hosts[i] = netsim.NewHost(eng, netsim.NodeID(i), rate, 0)
	}
	netsim.WireHost(hosts[0], left, 0, 0)
	netsim.WireHost(hosts[1], left, 1, 0)
	netsim.WireHost(hosts[2], right, 0, 0)
	netsim.WireHost(hosts[3], right, 1, 0)
	pathA := netsim.WireSwitches(left, 2, right, 2, 0)
	netsim.WireSwitches(left, 3, right, 3, 0)
	left.SetRoutes([][]int32{0: {0}, 1: {1}, 2: {2, 3}, 3: {2, 3}})
	right.SetRoutes([][]int32{0: {2, 3}, 1: {2, 3}, 2: {0}, 3: {1}})
	left.SetSelector(tagSelector{})
	right.SetSelector(tagSelector{})

	cfg := DefaultConfig()
	cfg.FlowBender = &core.Config{RNG: sim.NewRNG(5)}
	var flows []*Flow
	for i := 0; i < 6; i++ {
		flows = append(flows, StartFlow(eng, cfg, netsim.FlowID(i+1),
			hosts[i%2], hosts[2+i%2], 2_000_000))
	}
	// Flap one of the two inter-switch paths.
	eng.At(1*sim.Millisecond, func() { pathA.AtoB.SetLinkDown(true); pathA.BtoA.SetLinkDown(true) })
	eng.At(30*sim.Millisecond, func() { pathA.AtoB.SetLinkDown(false); pathA.BtoA.SetLinkDown(false) })
	eng.Run(20 * sim.Second)
	for _, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d incomplete under link flap (timeouts=%d)", f.ID, f.Sender().Timeouts)
		}
	}
}

// tagSelector picks eligible[tag % len] — a minimal deterministic selector
// for tests that keeps the tcp package free of a routing dependency.
type tagSelector struct{}

func (tagSelector) Select(_ *netsim.Switch, pkt *netsim.Packet, e []int32) int32 {
	return e[int(pkt.PathTag)%len(e)]
}
