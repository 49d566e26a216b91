package workload

import (
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
)

// Predraw must consume the RNG exactly as the live arrival process does:
// same sources, destinations, sizes, and arrival instants, in order.
func TestPredrawMatchesLiveArrivals(t *testing.T) {
	const n = 200
	mkHosts := func(eng *sim.Engine) []*netsim.Host {
		hosts := make([]*netsim.Host, 16)
		for i := range hosts {
			hosts[i] = netsim.NewHost(eng, netsim.NodeID(i), 10_000_000_000, 0)
		}
		return hosts
	}

	for _, srcSubset := range []bool{false, true} {
		// Live run: record each arrival from the Start hook.
		eng := sim.NewEngine()
		hosts := mkHosts(eng)
		type rec struct {
			at       sim.Time
			src, dst netsim.NodeID
			size     int64
		}
		var live []rec
		gen := &AllToAll{
			Eng: eng, RNG: sim.NewRNG(42).Fork("workload"), Hosts: hosts,
			CDF: WebSearchCDF(), IDs: &IDAllocator{},
			MeanInterarrival: 50 * sim.Microsecond, MaxFlows: n,
			Start: func(id netsim.FlowID, src, dst *netsim.Host, size int64) *tcp.Flow {
				live = append(live, rec{at: eng.Now(), src: src.ID(), dst: dst.ID(), size: size})
				return &tcp.Flow{ID: id, Src: src, Dst: dst, Size: size}
			},
		}
		if srcSubset {
			gen.SrcHosts = hosts[:3]
		}
		gen.Run()
		eng.RunUntilIdle()
		if len(live) != n {
			t.Fatalf("live run produced %d arrivals; want %d", len(live), n)
		}

		// Predraw from an identical fork, against hosts of a second build.
		eng2 := sim.NewEngine()
		hosts2 := mkHosts(eng2)
		gen2 := &AllToAll{
			RNG: sim.NewRNG(42).Fork("workload"), Hosts: hosts2,
			CDF: WebSearchCDF(), MeanInterarrival: 50 * sim.Microsecond,
		}
		if srcSubset {
			gen2.SrcHosts = hosts2[:3]
		}
		arr := gen2.Predraw(n)
		for i := range arr {
			if arr[i].At != live[i].at || arr[i].Src.ID() != live[i].src ||
				arr[i].Dst.ID() != live[i].dst || arr[i].Size != live[i].size {
				t.Fatalf("srcSubset=%v arrival %d: predraw {at %d %d->%d size %d} vs live {at %d %d->%d size %d}",
					srcSubset, i,
					arr[i].At, arr[i].Src.ID(), arr[i].Dst.ID(), arr[i].Size,
					live[i].at, live[i].src, live[i].dst, live[i].size)
			}
		}
	}
}
