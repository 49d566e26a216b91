package benchkit

import (
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
)

// go test -bench wrappers around the benchmark bodies the repository
// benchmark's probes run, so the same code paths can be profiled
// interactively.

func BenchmarkEngineSchedule(b *testing.B)  { EngineSchedule(b) }
func BenchmarkPacketHop(b *testing.B)       { PacketHop(b) }
func BenchmarkTCPTransfer1MB(b *testing.B)  { TCPTransfer(b, 1_000_000) }
func BenchmarkTCPTransfer10MB(b *testing.B) { TCPTransfer(b, 10_000_000) }

// benchSwitch builds an 8-port switch with an 8-way ECMP route for every
// destination, mirroring a core switch's forwarding state.
func benchSwitch() (*netsim.Switch, *netsim.Packet) {
	eng := sim.NewEngine()
	sw := netsim.NewSwitch(eng, 100, 8, 10_000_000_000, netsim.SwitchConfig{})
	all := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	routes := make([][]int32, 32)
	for i := range routes {
		routes[i] = all
	}
	sw.SetRoutes(routes)
	sw.SetSelector(routing.ECMP{})
	pkt := &netsim.Packet{
		Flow:    7,
		Src:     3,
		Dst:     13,
		SrcPort: 41000,
		DstPort: 80,
		Proto:   netsim.ProtoTCP,
		PathTag: 2,
	}
	return sw, pkt
}

var portSink int32

// BenchmarkSwitchSelectUncached measures ECMP egress selection with no hash
// prefix on the packet: the memo cache cannot engage, so every call runs the
// full flow-key hash. This was the per-hop cost before prefix caching.
func BenchmarkSwitchSelectUncached(b *testing.B) {
	sw, pkt := benchSwitch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		portSink = sw.SelectEgress(pkt)
	}
}

// BenchmarkSwitchSelectCached measures the steady-state path: the packet
// carries its transport-stamped prefix and the switch's selector memo holds
// the flow's choice, so selection is one direct-mapped cache probe.
func BenchmarkSwitchSelectCached(b *testing.B) {
	sw, pkt := benchSwitch()
	pkt.HashPrefix = routing.FlowHashPrefix(pkt.Src, pkt.Dst, pkt.SrcPort, pkt.DstPort, pkt.Proto)
	pkt.HashPrefixOK = true
	sw.SelectEgress(pkt) // warm the memo slot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		portSink = sw.SelectEgress(pkt)
	}
}

// nopHandler is a no-op flow handler for dispatch benchmarks.
type nopHandler struct{}

func (nopHandler) Deliver(*netsim.Packet) {}

// dispatchFlows is the live-handler population for the dispatch benchmarks —
// a busy host terminating a few hundred concurrent flows.
const dispatchFlows = 256

var handlerSink netsim.Handler

// BenchmarkHostDispatchFlat measures per-packet handler lookup through the
// host's open-addressed handler table (the production dispatch path).
func BenchmarkHostDispatchFlat(b *testing.B) {
	eng := sim.NewEngine()
	h := netsim.NewHost(eng, 1, 10_000_000_000, 0)
	for f := 0; f < dispatchFlows; f++ {
		h.Register(netsim.FlowID(f), nopHandler{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handlerSink = h.Handler(netsim.FlowID(i % dispatchFlows))
	}
}

// BenchmarkHostDispatchMap is the baseline the flat table replaced: the same
// lookups through a built-in map, for comparison in bench output.
func BenchmarkHostDispatchMap(b *testing.B) {
	m := make(map[netsim.FlowID]netsim.Handler)
	for f := 0; f < dispatchFlows; f++ {
		m[netsim.FlowID(f)] = nopHandler{}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handlerSink = m[netsim.FlowID(i%dispatchFlows)]
	}
}
