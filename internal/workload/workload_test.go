package workload

import (
	"testing"
	"testing/quick"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
)

func TestWebSearchCDFValid(t *testing.T) {
	if err := WebSearchCDF().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCDFValidateRejectsBadShapes(t *testing.T) {
	bad := []CDF{
		{},
		{{Bytes: 0, P: 1}},
		{{Bytes: 10, P: 0.5}, {Bytes: 5, P: 1}}, // sizes not increasing
		{{Bytes: 10, P: 0.8}, {Bytes: 20, P: 0.5}}, // P not monotone
		{{Bytes: 10, P: 0}, {Bytes: 20, P: 0.9}},   // does not reach 1
		{{Bytes: 10, P: -0.1}, {Bytes: 20, P: 1}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestFixedCDF(t *testing.T) {
	c := Fixed(1_000_000)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		if got := c.Sample(rng); got != 1_000_000 {
			t.Fatalf("Fixed sample = %d", got)
		}
	}
	if c.Mean() != 1_000_000 {
		t.Fatalf("Fixed mean = %v", c.Mean())
	}
}

func TestCDFSampleWithinSupport(t *testing.T) {
	c := WebSearchCDF()
	rng := sim.NewRNG(7)
	lo, hi := c[0].Bytes, c[len(c)-1].Bytes
	for i := 0; i < 50_000; i++ {
		s := c.Sample(rng)
		if s < lo || s > hi {
			t.Fatalf("sample %d outside [%d, %d]", s, lo, hi)
		}
	}
}

func TestCDFSampleMeanMatchesAnalytic(t *testing.T) {
	c := WebSearchCDF()
	rng := sim.NewRNG(3)
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		sum += float64(c.Sample(rng))
	}
	got := sum / n
	want := c.Mean()
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("empirical mean %v vs analytic %v", got, want)
	}
}

func TestCDFHeavyTail(t *testing.T) {
	// The defining property of the workload: most flows are small but most
	// bytes are in large flows.
	c := WebSearchCDF()
	rng := sim.NewRNG(5)
	var total, bigBytes float64
	big := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		s := float64(c.Sample(rng))
		total += s
		if s > 1_000_000 {
			big++
			bigBytes += s
		}
	}
	if frac := float64(big) / n; frac > 0.25 {
		t.Fatalf("large flows are %.0f%% of flows, want a small fraction", frac*100)
	}
	if frac := bigBytes / total; frac < 0.5 {
		t.Fatalf("large flows carry %.0f%% of bytes, want the majority", frac*100)
	}
}

// Property: inverse-transform sampling respects the CDF at its defining
// points: P(X <= Bytes_i) ~ P_i.
func TestCDFQuantileProperty(t *testing.T) {
	c := WebSearchCDF()
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		const n = 20_000
		counts := make([]int, len(c))
		for i := 0; i < n; i++ {
			s := c.Sample(rng)
			for j := range c {
				if s <= c[j].Bytes {
					counts[j]++
				}
			}
		}
		for j := range c {
			got := float64(counts[j]) / n
			if diff := got - c[j].P; diff > 0.03 || diff < -0.03 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateInterarrival(t *testing.T) {
	// Bisection 80 Gbps, 3/4 of traffic crosses it, load 0.6:
	// total = 0.6*80/0.75 = 64 Gbps. Mean flow 1 MB = 8 Mb ->
	// 8000 flows/s -> 125 us interarrival.
	got := AggregateInterarrival(0.6, 80_000_000_000, 0.75, 1_000_000)
	want := sim.Time(125 * sim.Microsecond)
	if got < want-sim.Microsecond || got > want+sim.Microsecond {
		t.Fatalf("interarrival = %v, want ~%v", got, want)
	}
}

func TestJobInterarrival(t *testing.T) {
	got := JobInterarrival(0.6, 80_000_000_000, 0.75, 1_000_000)
	want := AggregateInterarrival(0.6, 80_000_000_000, 0.75, 1_000_000)
	if got != want {
		t.Fatalf("job interarrival %v != flow interarrival %v for same bytes", got, want)
	}
}

// fakeFactory records requested flows without simulating transport.
type fakeFactory struct {
	eng   *sim.Engine
	flows []*tcp.Flow
}

func (f *fakeFactory) start(id netsim.FlowID, src, dst *netsim.Host, size int64) *tcp.Flow {
	fl := &tcp.Flow{ID: id, Src: src, Dst: dst, Size: size, Start: f.eng.Now(), RecvDone: f.eng.Now(), SendDone: f.eng.Now()}
	f.flows = append(f.flows, fl)
	return fl
}

func testHosts(eng *sim.Engine, n int) []*netsim.Host {
	hosts := make([]*netsim.Host, n)
	for i := range hosts {
		hosts[i] = netsim.NewHost(eng, netsim.NodeID(i), 10_000_000_000, 0)
	}
	return hosts
}

func TestAllToAllGeneratesExactlyMaxFlows(t *testing.T) {
	eng := sim.NewEngine()
	hosts := testHosts(eng, 8)
	ff := &fakeFactory{eng: eng}
	gen := &AllToAll{
		Eng: eng, RNG: sim.NewRNG(1), Hosts: hosts, CDF: Fixed(1000),
		Start: ff.start, IDs: &IDAllocator{}, MeanInterarrival: sim.Microsecond, MaxFlows: 137,
	}
	gen.Run()
	eng.RunUntilIdle()
	if len(gen.Flows) != 137 {
		t.Fatalf("generated %d flows", len(gen.Flows))
	}
	for _, f := range gen.Flows {
		if f.Src == f.Dst {
			t.Fatal("flow with src == dst")
		}
	}
}

func TestAllToAllSrcSubset(t *testing.T) {
	eng := sim.NewEngine()
	hosts := testHosts(eng, 8)
	ff := &fakeFactory{eng: eng}
	gen := &AllToAll{
		Eng: eng, RNG: sim.NewRNG(2), Hosts: hosts, SrcHosts: hosts[:2], CDF: Fixed(1000),
		Start: ff.start, IDs: &IDAllocator{}, MeanInterarrival: sim.Microsecond, MaxFlows: 100,
	}
	gen.Run()
	eng.RunUntilIdle()
	for _, f := range gen.Flows {
		if f.Src != hosts[0] && f.Src != hosts[1] {
			t.Fatal("flow from outside the source subset")
		}
	}
}

func TestAllToAllSameWorkloadAcrossRuns(t *testing.T) {
	build := func() []*tcp.Flow {
		eng := sim.NewEngine()
		hosts := testHosts(eng, 8)
		ff := &fakeFactory{eng: eng}
		gen := &AllToAll{
			Eng: eng, RNG: sim.NewRNG(42), Hosts: hosts, CDF: WebSearchCDF(),
			Start: ff.start, IDs: &IDAllocator{}, MeanInterarrival: 10 * sim.Microsecond, MaxFlows: 200,
		}
		gen.Run()
		eng.RunUntilIdle()
		return gen.Flows
	}
	x, y := build(), build()
	if len(x) != len(y) {
		t.Fatal("runs generated different flow counts")
	}
	for i := range x {
		if x[i].Size != y[i].Size || x[i].Start != y[i].Start ||
			x[i].Src.ID() != y[i].Src.ID() || x[i].Dst.ID() != y[i].Dst.ID() {
			t.Fatalf("flow %d differs between identically seeded runs", i)
		}
	}
}

func TestPartitionAggregateJobs(t *testing.T) {
	eng := sim.NewEngine()
	hosts := testHosts(eng, 16)
	ff := &fakeFactory{eng: eng}
	gen := &PartitionAggregate{
		Eng: eng, RNG: sim.NewRNG(3), Hosts: hosts,
		Start: ff.start, IDs: &IDAllocator{},
		JobBytes: 1_000_000, FanIn: 8, MeanInterarrival: sim.Microsecond, MaxJobs: 20,
	}
	gen.Run()
	eng.RunUntilIdle()
	if len(gen.Jobs) != 20 {
		t.Fatalf("jobs = %d", len(gen.Jobs))
	}
	for _, j := range gen.Jobs {
		if len(j.Flows) != 8 {
			t.Fatalf("job has %d workers", len(j.Flows))
		}
		agg := j.Flows[0].Dst
		seen := map[netsim.NodeID]bool{}
		var total int64
		for _, f := range j.Flows {
			if f.Dst != agg {
				t.Fatal("workers respond to different aggregators")
			}
			if f.Src == agg {
				t.Fatal("aggregator responds to itself")
			}
			if seen[f.Src.ID()] {
				t.Fatal("duplicate worker in a job")
			}
			seen[f.Src.ID()] = true
			total += f.Size
		}
		if total < 999_992 || total > 1_000_000 {
			t.Fatalf("job bytes = %d", total)
		}
		if !j.Done() {
			t.Fatal("fake-completed job not Done")
		}
	}
}

func TestIDAllocatorUnique(t *testing.T) {
	var a IDAllocator
	seen := map[netsim.FlowID]bool{}
	for i := 0; i < 1000; i++ {
		id := a.Next()
		if seen[id] {
			t.Fatal("duplicate flow ID")
		}
		seen[id] = true
	}
}
