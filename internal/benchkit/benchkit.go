// Package benchkit holds the micro-benchmark bodies of the three hot paths
// the packet engine is made of: scheduling an event, moving a packet one
// switch hop, and completing a TCP transfer.
//
// The same functions are driven two ways: `go test -bench` (the wrappers in
// bench_test.go) for interactive work, and the repository benchmark's probes
// (bench/probes.go, via testing.Benchmark), which report them as
// sim.schedule_*, netsim.hop_* and tcp.transfer10mb_*.
package benchkit

import (
	"runtime"
	"testing"

	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/udp"
)

// EngineSchedule measures the engine's raw event throughput: each op
// schedules one event; batches of 1024 are then drained so the heap stays at
// a realistic occupancy. ns/op and allocs/op are therefore per event.
func EngineSchedule(b *testing.B) {
	const batch = 1024
	eng := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(sim.Time(i%1000), func() {})
		if i%batch == batch-1 {
			eng.RunUntilIdle()
		}
	}
	eng.RunUntilIdle()
}

// PacketHop drives a fixed-rate UDP stream across the tiny fat-tree for one
// virtual millisecond per op and reports the cost per switch hop — the
// end-to-end price of a packet traversing the fabric (port serialization,
// wire delay, switch pipeline, queue, selector), including the share of
// engine events that moves it. Headline metrics are the ReportMetric values
// "ns/hop" and "allocs/hop"; ns/op is per simulated millisecond.
func PacketHop(b *testing.B) {
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, topo.TinyScale())
	ft.SetSelector(routing.ECMP{})
	src := ft.Hosts[0]
	dst := ft.Hosts[len(ft.Hosts)-1] // inter-pod: 5 switch hops
	sink := udp.NewSink()
	dst.Register(1, sink)
	snd := udp.NewSender(eng, 1, src, dst, 5_000_000_000, 1000)
	snd.Start()
	// Warm up: let the stream reach steady state (and fill any pools).
	eng.Run(eng.Now() + sim.Millisecond)

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	hops0 := totalSwitchRx(ft)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + sim.Millisecond)
	}
	b.StopTimer()
	hops := totalSwitchRx(ft) - hops0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	snd.Stop()
	if hops > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(hops), "allocs/hop")
	}
}

func totalSwitchRx(ft *topo.FatTree) int64 {
	var n int64
	for _, sw := range ft.AllSwitches() {
		n += sw.RxPackets
	}
	return n
}

// TCPTransfer measures one full TCP transfer of size bytes across the tiny
// fat-tree, end to end (events, TCP state machines, queues, routing) — the
// composite metric the experiments are made of.
func TCPTransfer(b *testing.B, size int64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		ft := topo.NewFatTree(eng, topo.TinyScale())
		ft.SetSelector(routing.ECMP{})
		f := tcp.StartFlow(eng, tcp.DefaultConfig(), 1, ft.Hosts[0], ft.Hosts[12], size)
		eng.Run(10 * sim.Second)
		if !f.Done() {
			b.Fatal("flow incomplete")
		}
	}
}
