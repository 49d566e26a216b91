package workload

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// drain collects copies of a schedule's batches.
func drain(src Schedule) [][]FlowSpec {
	var out [][]FlowSpec
	for b := src.NextBatch(); b != nil; b = src.NextBatch() {
		out = append(out, append([]FlowSpec(nil), b...))
	}
	return out
}

// digest hashes the first n arrivals' (instant, source, destination, size).
func digest(src Schedule, n int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for b := src.NextBatch(); b != nil && n > 0; b = src.NextBatch() {
		for _, s := range b {
			for _, v := range []int64{int64(s.At), int64(s.SrcIdx), int64(s.DstIdx), s.Size} {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
			n--
		}
	}
	return h.Sum64()
}

// a2a is the all-to-all schedule the digests below were taken from: 16 hosts,
// web-search sizes, 50 µs mean gap, the seed-42 workload stream.
func a2a(maxFlows int) *AllToAll {
	return &AllToAll{RNG: sim.NewRNG(42).Fork("workload"), NumHosts: 16, CDF: WebSearchCDF(),
		MeanInterarrival: 50 * sim.Microsecond, MaxFlows: maxFlows}
}

// partAgg is the partition-aggregate schedule of the digests: 16 hosts,
// 1 MB jobs over 8 workers, 100 µs mean gap, the seed-42 workload stream.
func partAgg(maxJobs int) *PartitionAggregate {
	return &PartitionAggregate{RNG: sim.NewRNG(42).Fork("workload"), NumHosts: 16,
		JobBytes: 1_000_000, FanIn: 8, MeanInterarrival: 100 * sim.Microsecond, MaxJobs: maxJobs}
}

// disjoint restricts a schedule to senders 0-3 and receivers 8-15.
func disjoint(g *AllToAll) *AllToAll {
	g.Srcs = []int{0, 1, 2, 3}
	g.Dsts = []int{8, 9, 10, 11, 12, 13, 14, 15}
	return g
}

// The schedules draw what the live generators they replaced drew. The
// constants are the digests of the first 1,000 flows those generators
// started, recorded at the commit before their deletion, and end is the
// instant of the arrival each generator fired after its last flow, which
// started nothing.
var liveDigests = []struct {
	name    string
	sched   func(batches int) Schedule
	batches int // of the first 1,000 flows
	digest  uint64
	end     sim.Time
}{
	{"alltoall", func(n int) Schedule { return a2a(n) }, 1000, 0xbea0aa96578c2f4e, 47818137},
	{"alltoall-disjoint", func(n int) Schedule { return disjoint(a2a(n)) }, 1000, 0x2400536a001ca41c, 49349547},
	{"partagg", func(n int) Schedule { return partAgg(n) }, 125, 0x68b29911fbaacff2, 13096830},
}

func TestScheduleDigests(t *testing.T) {
	for _, c := range liveDigests {
		if got := digest(c.sched(c.batches), 1000); got != c.digest {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.digest)
		}
		// One arrival past the count lands where the live generator's last,
		// empty arrival did.
		b := drain(c.sched(c.batches + 1))
		if last := b[len(b)-1][0].At; last != c.end {
			t.Errorf("%s: arrival past the count at %d, want %d", c.name, last, c.end)
		}
	}
}

// A bounded schedule yields exactly its count — zero means none — and stays
// exhausted; no flow sends to itself.
func TestAllToAllGeneratesExactlyMaxFlows(t *testing.T) {
	for _, n := range []int{0, 1, 137} {
		g := &AllToAll{RNG: sim.NewRNG(1), NumHosts: 8, CDF: Fixed(1000), MeanInterarrival: sim.Microsecond, MaxFlows: n}
		batches := drain(g)
		if len(batches) != n || g.NextBatch() != nil {
			t.Fatalf("MaxFlows %d: %d batches, or not exhausted after", n, len(batches))
		}
		var at sim.Time
		for _, b := range batches {
			if len(b) != 1 || b[0].SrcIdx == b[0].DstIdx || b[0].At < at {
				t.Fatalf("MaxFlows %d: bad arrival %+v", n, b)
			}
			at = b[0].At
		}
	}
}

// Senders come from Srcs and receivers from Dsts; an empty set is every host.
func TestAllToAllSrcSubset(t *testing.T) {
	in := func(set []int, h int32) bool {
		for _, x := range set {
			if int32(x) == h {
				return true
			}
		}
		return len(set) == 0
	}
	for _, g := range []*AllToAll{
		{Srcs: []int{0, 1}},
		{Srcs: []int{0, 1}, Dsts: []int{1, 2}},
		disjoint(&AllToAll{}),
	} {
		g.RNG, g.NumHosts, g.CDF, g.MeanInterarrival, g.MaxFlows = sim.NewRNG(2), 16, Fixed(1000), sim.Microsecond, 300
		for _, b := range drain(g) {
			s := b[0]
			if !in(g.Srcs, s.SrcIdx) || !in(g.Dsts, s.DstIdx) || s.SrcIdx == s.DstIdx || s.DstIdx >= 16 {
				t.Fatalf("Srcs %v Dsts %v: arrival %d -> %d", g.Srcs, g.Dsts, s.SrcIdx, s.DstIdx)
			}
		}
	}
}

// Two identically seeded schedules are one stream, however it is consumed:
// batch by batch, or all at once through Predraw.
func TestAllToAllSameWorkloadAcrossRuns(t *testing.T) {
	hosts := make([]*netsim.Host, 16)
	for i := range hosts {
		hosts[i] = netsim.NewHost(sim.NewEngine(), netsim.NodeID(i), 10_000_000_000, 0)
	}
	batches := drain(a2a(200))
	g := a2a(0)
	g.Hosts = hosts
	pre := g.Predraw(200)
	if len(pre) != len(batches) {
		t.Fatalf("Predraw drew %d arrivals, NextBatch %d", len(pre), len(batches))
	}
	for i, a := range pre {
		s := batches[i][0]
		if a.At != s.At || a.Src != hosts[s.SrcIdx] || a.Dst != hosts[s.DstIdx] || a.Size != s.Size {
			t.Fatalf("arrival %d: Predraw %+v, NextBatch %+v", i, a, s)
		}
	}
}

// A job is one batch: FanIn responses at one instant from distinct workers,
// none the aggregator, splitting JobBytes evenly.
func TestPartitionAggregateJobs(t *testing.T) {
	for _, c := range []struct{ hosts, fanIn int }{{16, 8}, {16, 15}, {4, 8}} {
		g := &PartitionAggregate{RNG: sim.NewRNG(3), NumHosts: c.hosts,
			JobBytes: 1_000_000, FanIn: c.fanIn, MeanInterarrival: sim.Microsecond, MaxJobs: 20}
		jobs := drain(g)
		if len(jobs) != 20 {
			t.Fatalf("jobs = %d", len(jobs))
		}
		for _, job := range jobs {
			if len(job) != c.fanIn {
				t.Fatalf("job has %d workers, want %d", len(job), c.fanIn)
			}
			seen := map[int32]bool{}
			var total int64
			for _, s := range job {
				if s.DstIdx != job[0].DstIdx || s.At != job[0].At || s.Kind != KindIncast {
					t.Fatalf("responses differ in aggregator, instant or kind: %+v", job)
				}
				if s.SrcIdx == s.DstIdx {
					t.Fatal("aggregator responds to itself")
				}
				// Workers repeat only once every other host is one.
				if seen[s.SrcIdx] && len(seen) < c.hosts-1 {
					t.Fatalf("duplicate worker in a job: %+v", job)
				}
				seen[s.SrcIdx] = true
				total += s.Size
			}
			if per := int64(1_000_000 / c.fanIn); total != per*int64(c.fanIn) {
				t.Fatalf("job bytes = %d, want %d", total, per*int64(c.fanIn))
			}
		}
	}
}

// Replay starts a batch's flows in one event at its instant and numbers
// flows across the schedule. Without armFirst the first batch starts at once
// and each beacon is armed after its batch; with it, every batch is an event.
func TestReplay(t *testing.T) {
	for _, armFirst := range []bool{false, true} {
		eng := sim.NewEngine()
		var got []int
		Replay(eng, partAgg(5), armFirst, func(i int, s FlowSpec) {
			if eng.Now() != s.At {
				t.Fatalf("flow %d started at %d, its arrival is at %d", i, eng.Now(), s.At)
			}
			got = append(got, i)
		})
		if started := len(got); armFirst && started != 0 || !armFirst && started != 8 {
			t.Fatalf("armFirst %v: %d flows started synchronously", armFirst, started)
		}
		eng.RunUntilIdle()
		for i, v := range got {
			if v != i {
				t.Fatalf("armFirst %v: flows numbered %v", armFirst, got)
			}
		}
		want := uint64(4)
		if armFirst {
			want = 5
		}
		if len(got) != 40 || eng.Executed != want {
			t.Fatalf("armFirst %v: %d flows in %d events, want 40 in %d", armFirst, len(got), eng.Executed, want)
		}
	}
}

// A schedule drawn one arrival past the count, replayed by a consumer that
// starts the first n, ends the way a live generator did: n flows, then one
// event at the instant after the last gap that starts nothing.
func TestReplayArrivalPastTheCount(t *testing.T) {
	eng := sim.NewEngine()
	started := 0
	Replay(eng, a2a(1001), false, func(i int, s FlowSpec) {
		if i < 1000 {
			started++
		}
	})
	eng.RunUntilIdle()
	if started != 1000 || eng.Executed != 1000 || eng.Now() != liveDigests[0].end {
		t.Fatalf("%d flows, %d events, ended at %d; want 1000, 1000, %d", started, eng.Executed, eng.Now(), liveDigests[0].end)
	}
}

// distinctByMap is distinct as it was written with a map for its seen set:
// the reference the slice-backed one must match draw for draw.
func distinctByMap(rng *sim.RNG, nh, except, k int) []int {
	var out []int
	used := map[int]bool{except: true}
	for ; k > 0; k-- {
		h := rng.IntnExcept(nh, except)
		for used[h] && len(used) < nh {
			h = rng.IntnExcept(nh, except)
		}
		used[h] = true
		out = append(out, h)
	}
	return out
}

// distinct emits what the map-based reference emits and leaves the stream
// where it leaves it, across host counts, excluded hosts and draw counts —
// past the 64 the stack buffer holds, and at or past the host count, where
// every host has been drawn and draws repeat.
func TestDistinctMatchesMapReference(t *testing.T) {
	for _, nh := range []int{2, 3, 5, 8, 64, 65, 66, 100, 10240} {
		for _, except := range []int{0, nh / 2, nh - 1} {
			ks := []int{0, 1, 3, 8, 63, 64, 65, 200}
			if nh <= 100 { // all of them drawn: the coupon collector's wait
				ks = append(ks, nh-1, nh, nh+5)
			}
			for _, k := range ks {
				seed := int64(nh*1_000_000 + except*1000 + k)
				ref, sub := sim.NewRNG(seed), sim.NewRNG(seed)
				want := distinctByMap(ref, nh, except, k)
				var got []int
				distinct(sub, nh, except, k, func(h int) { got = append(got, h) })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("nh %d except %d k %d: drew %v, map reference %v", nh, except, k, got, want)
				}
				if a, b := sub.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("nh %d except %d k %d: stream left at %x, map reference at %x", nh, except, k, a, b)
				}
			}
		}
	}
}
