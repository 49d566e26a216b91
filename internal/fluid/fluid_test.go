package fluid

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
)

// TestSinglePathMatchesPacketECMP drives the real fat-tree's ECMP selector
// with synthetic packets and checks that the fluid engine's arithmetic
// path draw lands on the identical (agg, core-uplink) pair for every
// (src, dst, flow, tag) probed — hash collisions and all. This is the
// contract that makes cross-engine comparisons meaningful: both engines
// put a given flow on the same path.
func TestSinglePathMatchesPacketECMP(t *testing.T) {
	for _, p := range []topo.Params{topo.TinyScale(), topo.SmallScale(), topo.PaperScale()} {
		p := p
		t.Run(fmt.Sprintf("hosts=%d", p.NumHosts()), func(t *testing.T) {
			eng := sim.NewEngine()
			ft := topo.NewFatTree(eng, p)
			net := NewNet(p)
			sel := routing.ECMP{}

			upTor := make([]int32, p.AggsPerPod)
			for a := range upTor {
				upTor[a] = int32(p.ServersPerTor + a)
			}
			upAgg := make([]int32, p.CoreUplinksPerAgg)
			for k := range upAgg {
				upAgg[k] = int32(p.TorsPerPod + k)
			}

			n := p.NumHosts()
			probes := 0
			for id := netsim.FlowID(1); id <= 50; id++ {
				src := int32((int(id) * 37) % n)
				dst := int32((int(id)*61 + 13) % n)
				if src == dst {
					continue
				}
				for _, tag := range []uint32{0, 1, 5} {
					srcPort, dstPort := tcp.PortsFor(id)
					prefix := FlowPrefix(src, dst, srcPort, dstPort)
					var got pathRef
					net.singlePath(&got, prefix, tag, src, dst)

					sPod, sTor, _ := ft.HostLoc(int(src))
					dPod, dTor, _ := ft.HostLoc(int(dst))
					var want pathRef
					if sPod == dPod && sTor == dTor {
						net.buildPath(&want, src, dst, 0, 0)
					} else {
						pkt := &netsim.Packet{
							Src: netsim.NodeID(src), Dst: netsim.NodeID(dst),
							SrcPort: srcPort, DstPort: dstPort,
							Proto: netsim.ProtoTCP, PathTag: tag,
						}
						tor := ft.Tors[sPod][sTor%p.TorsPerPod]
						aPort := sel.Select(tor, pkt, upTor)
						a := int32(aPort) - int32(p.ServersPerTor)
						var k int32
						if sPod != dPod {
							agg := ft.Aggs[sPod][a]
							kPort := sel.Select(agg, pkt, upAgg)
							k = int32(kPort) - int32(p.TorsPerPod)
						}
						net.buildPath(&want, src, dst, a, k)
					}
					if got != want {
						t.Fatalf("flow %d %d->%d tag %d: fluid path %v != packet path %v",
							id, src, dst, tag, got, want)
					}
					probes++
				}
			}
			if probes < 100 {
				t.Fatalf("only %d probes exercised", probes)
			}
		})
	}
}

// collectRuns runs a fixed flow set through a fluid Sim and returns the
// completions in order.
func runFluid(t *testing.T, cfg Config, arrivals func(s *Sim)) []Done {
	t.Helper()
	eng := sim.NewEngine()
	s := NewSim(eng, cfg)
	var out []Done
	s.OnDone = func(d Done) { out = append(out, d) }
	arrivals(s)
	eng.Run(10 * sim.Second)
	if s.ActiveFlows() != 0 {
		t.Fatalf("%d flows still active at drain deadline", s.ActiveFlows())
	}
	return out
}

// TestSingleFlowFCT pins the FCT of one uncontended inter-pod flow against
// the hand-computed value: drain at access rate plus base latency plus
// per-hop store-and-forward of the final packet, no queueing anywhere.
func TestSingleFlowFCT(t *testing.T) {
	p := topo.TinyScale()
	done := runFluid(t, Config{Params: p}, func(s *Sim) {
		// Host 0 (pod 0) -> host 8 (pod 1): a 6-link inter-pod path.
		s.Arrive(1, 0, 8, 10000, 0)
	})
	if len(done) != 1 {
		t.Fatalf("got %d completions, want 1", len(done))
	}
	// 10000 B = 7 segments; wire = (10000 + 7*40)*8 = 82240 bits at 10G
	// -> 8224 ns drain. Base one-way: 2*20us + 5*1us = 45000 ns. Final
	// packet (1240+40)*8 = 10240 bits store-and-forwarded across torUp
	// (20G), aggUp, coreDown (10G), aggDown (20G), hostDown (10G) = 512 +
	// 1024 + 1024 + 512 + 1024 = 4096 ns. Total 57320 ns.
	want := sim.Time(57320)
	if d := done[0].FCT - want; d < -5 || d > 5 {
		t.Fatalf("solo FCT = %v, want %v (+-5ns)", done[0].FCT, want)
	}
	if done[0].ID != 1 || done[0].Size != 10000 {
		t.Fatalf("completion record %+v", done[0])
	}
}

// TestSlowStartRounds pins the slow-start budget machine: a 1 MB solo flow
// pauses through four doubling rounds before streaming, so its FCT is far
// above pure drain time but below two times it.
func TestSlowStartRounds(t *testing.T) {
	p := topo.TinyScale()
	done := runFluid(t, Config{Params: p}, func(s *Sim) {
		s.Arrive(1, 0, 8, 1_000_000, 0)
	})
	// Wire: (1e6 + 686*40)*8 = 8219520 bits -> 821.952 us pure drain.
	// Slow-start rounds 0..3 transmit 120k+240k+480k+960k bits gated on a
	// ~97.4 us RTT, then the window covers the bandwidth-delay product and
	// the remaining ~6.42 Mbit stream at line rate: about 1032 us before
	// the delivery tail.
	fct := done[0].FCT
	if fct < 1000*sim.Microsecond || fct > 1150*sim.Microsecond {
		t.Fatalf("1MB solo FCT = %v, want ~1.08ms (slow-start gated)", fct)
	}
}

// TestFairShareContention pins the solver wiring end to end: three
// same-ToR-pair elephants squeezed by one 20G ToR uplink... but ToR
// uplinks are chosen per flow by hash, so instead use many flows from the
// same source host, which serializes them at the 10G NIC: n flows of equal
// size started together finish in ~n times the solo drain.
func TestFairShareContention(t *testing.T) {
	p := topo.TinyScale()
	const nf = 4
	done := runFluid(t, Config{Params: p}, func(s *Sim) {
		for i := 0; i < nf; i++ {
			s.Arrive(netsim.FlowID(i+1), 0, 8, 100_000, 0)
		}
	})
	if len(done) != nf {
		t.Fatalf("got %d completions, want %d", len(done), nf)
	}
	// All four share host 0's NIC: aggregate 4*(100000+69*40)*8 =
	// 3288320 bits at 10G = 328.8 us, plus slow-start gating early on.
	last := done[len(done)-1].FCT
	if last < 320*sim.Microsecond || last > 450*sim.Microsecond {
		t.Fatalf("last of %d shared-NIC flows FCT = %v, want ~340-400us", nf, last)
	}
}

// TestReplicateFirstCopyWins checks RepFlow semantics: a replicated flow
// produces one completion, with the FCT of whichever copy finishes first,
// and both copies release their sessions.
func TestReplicateFirstCopyWins(t *testing.T) {
	p := topo.TinyScale()
	cfg := Config{Params: p, Replicate: true, ShortCutoff: math.MaxInt64}
	done := runFluid(t, cfg, func(s *Sim) {
		s.Arrive(1, 0, 8, 10000, 0)
	})
	if len(done) != 1 {
		t.Fatalf("got %d completions, want 1 (first copy wins)", len(done))
	}
	// The two copies share the source NIC at 5G each, so the winner drains
	// in twice the solo time: 16448 ns + the 49096 ns delivery tail — the
	// replication tax RepFlow pays on an idle fabric, in both engines.
	if d := done[0].FCT - 65544; d < -5 || d > 5 {
		t.Fatalf("replicated solo FCT = %v, want 65544ns", done[0].FCT)
	}
}

// TestSprayAggregatesPaths checks that a sprayed flow uses every inter-pod
// path: with the whole fabric to itself it still drains at access rate
// (the NIC binds), and with its source NIC shared against another flow it
// beats the single-path flow's completion.
func TestSpray(t *testing.T) {
	p := topo.TinyScale()
	cfg := Config{Params: p, Spray: true, ShortCutoff: math.MaxInt64}
	done := runFluid(t, cfg, func(s *Sim) {
		s.Arrive(1, 0, 8, 10000, 0)
	})
	if d := done[0].FCT - 57320; d < -5 || d > 5 {
		t.Fatalf("sprayed solo FCT = %v, want 57320ns (NIC-bound)", done[0].FCT)
	}
}

// TestFlowBenderReroutesUnderCongestion wires the full congestion loop:
// elephants colliding on a core uplink must see the marking signal and
// reroute, and solo flows must never reroute (no false congestion from
// access-limited full links).
func TestFlowBenderReroutesUnderCongestion(t *testing.T) {
	p := topo.TinyScale() // K=1: inter-pod collisions on an agg uplink are likely
	fb := &core.Config{T: 0.05, N: 1, RNG: sim.NewRNG(99)}

	solo := runFluid(t, Config{Params: p, FlowBender: fb}, func(s *Sim) {
		s.Arrive(1, 0, 8, 1_000_000, 0)
	})
	if solo[0].Reroutes != 0 {
		t.Fatalf("solo flow rerouted %d times; the marking model sees phantom congestion", solo[0].Reroutes)
	}

	// Everyone in pod 0 sends an elephant to pod 1: with 2 aggs and 1 core
	// uplink each, collisions are guaranteed and rerouting cannot fully
	// escape (TinyScale has only 2 inter-pod paths), so reroutes must
	// happen.
	fb2 := &core.Config{T: 0.05, N: 1, RNG: sim.NewRNG(99)}
	var total int64
	runs := runFluid(t, Config{Params: p, FlowBender: fb2}, func(s *Sim) {
		for i := 0; i < 8; i++ {
			s.Arrive(netsim.FlowID(i+1), int32(i), int32(8+i), 2_000_000, 0)
		}
	})
	for _, d := range runs {
		total += d.Reroutes
	}
	if total == 0 {
		t.Fatal("8 colliding elephants produced zero FlowBender reroutes")
	}
}

// digestDones folds a completion list into a stable hash.
func digestDones(dones []Done) uint64 {
	h := fnv.New64a()
	for _, d := range dones {
		fmt.Fprintf(h, "%d %d %d %d %d\n", d.ID, d.Size, d.FCT, d.Reroutes, d.UserTag)
	}
	return h.Sum64()
}

// fluidScenario runs a deterministic mixed workload and returns its digest.
func fluidScenario(t *testing.T) uint64 { return fluidScenarioShards(t, 0) }

// fluidScenarioShards is fluidScenario with the rate solver's
// component-parallel path engaged at the given worker count (dispatch
// threshold forced to 1 so even the steady state's small rounds go through
// the worker pool).
func fluidScenarioShards(t *testing.T, shards int) uint64 {
	fb := &core.Config{T: 0.05, N: 1, RNG: sim.NewRNG(7)}
	s := NewSim(sim.NewEngine(), Config{Params: topo.SmallScale(), FlowBender: fb, SolverShards: shards})
	return scenarioDigest(t, s, nil)
}

// scenarioDigest runs the scenario's 200 arrivals through s (a new or a
// Reset Sim) and returns the digest of its completions. midRun, when given,
// is called between two events about a third of the way through the run.
func scenarioDigest(t *testing.T, s *Sim, midRun func()) uint64 {
	p := s.cfg.Params
	eng := s.eng
	rng := sim.NewRNG(1234).Fork("arrivals")
	if s.cfg.SolverShards > 1 {
		s.inc.parThresh = 1
	}
	var dones []Done
	s.OnDone = func(d Done) { dones = append(dones, d) }
	at := sim.Time(0)
	for i := 0; i < 200; i++ {
		at += rng.Exp(20 * sim.Microsecond)
		id := netsim.FlowID(i + 1)
		src := int32(rng.Intn(p.NumHosts()))
		dst := int32(rng.IntnExcept(p.NumHosts(), int(src)))
		size := int64(1000 + rng.Intn(500_000))
		at, src, dst, size := at, src, dst, size
		eng.At(at, func() { s.Arrive(id, src, dst, size, int32(i%3)) })
	}
	if midRun != nil {
		eng.Run(at / 3)
		midRun()
	}
	eng.Run(10 * sim.Second)
	if len(dones) != 200 {
		t.Fatalf("completed %d of 200 flows", len(dones))
	}
	return digestDones(dones)
}

// fluidScenarioDigest is the pinned output of fluidScenario: the fluid
// engine is bit-deterministic, so any drift here is a regression. Refreshed
// intentionally only when the model itself changes.
//
// The same digest must come out at -parallel 1, 4, and 8 and under -race;
// TestFluidDeterminism runs the scenario concurrently with itself to prove
// runs don't share hidden state.
// Refreshed for the incremental solver (lazy per-transfer settling changes
// the float-rounding interleaving at the nanosecond level; the analytical
// bracket and fidelity tests bound the physical drift).
const fluidScenarioDigest uint64 = 0x97236d71fc3247cb

func TestFluidDeterminism(t *testing.T) {
	for i := 0; i < 3; i++ {
		t.Run(fmt.Sprintf("run%d", i), func(t *testing.T) {
			t.Parallel()
			if got := fluidScenario(t); got != fluidScenarioDigest {
				t.Fatalf("scenario digest %#x != pinned %#x", got, fluidScenarioDigest)
			}
		})
	}
}

// TestFluidDeterminismSolverShards pins the whole-simulation half of the
// parallel-solver contract: the scenario digest must come out identical
// with the component solve forced through 2, 4, and 8 workers. Together
// with TestSolverShardsBitIdentical (per-commit rate vectors) this is the
// "bit-identical at any shard count" guarantee, proven under -race in CI.
func TestFluidDeterminismSolverShards(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			t.Parallel()
			if got := fluidScenarioShards(t, shards); got != fluidScenarioDigest {
				t.Fatalf("shards=%d digest %#x != pinned %#x", shards, got, fluidScenarioDigest)
			}
		})
	}
}

// The scenario again with spraying on — every flow over every path (RPS,
// DeTail), and only the flows under 100 KB (DiffFlow) — pinned like
// fluidScenarioDigest: a sprayed transfer is one session per path, so these
// are the runs whose commits re-solve coupled components, bucket several of
// them, and fold many sessions into one transfer. The constants were computed
// at 9a6d17d, the parent of the fused solver round.
const (
	fluidSprayAllDigest   uint64 = 0x8b45986614919061
	fluidSprayShortDigest uint64 = 0x9c955d8c99ca060d
)

func sprayScenarioCfg(cutoff int64, shards int) Config {
	return Config{Params: topo.SmallScale(), Spray: true, ShortCutoff: cutoff, SolverShards: shards}
}

func TestFluidDeterminismSpray(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cutoff int64
		want   uint64
	}{
		{"all", math.MaxInt64, fluidSprayAllDigest},
		{"short", 100_000, fluidSprayShortDigest},
	} {
		for _, shards := range []int{0, 2, 4} {
			tc, shards := tc, shards
			t.Run(fmt.Sprintf("%s/shards%d", tc.name, shards), func(t *testing.T) {
				t.Parallel()
				s := NewSim(sim.NewEngine(), sprayScenarioCfg(tc.cutoff, shards))
				if got := scenarioDigest(t, s, nil); got != tc.want {
					t.Fatalf("digest %#x != pinned %#x", got, tc.want)
				}
			})
		}
	}
}

// TestFoldStampWraparound takes the sprayed scenario across MaxUint32 on all
// three generation counters a sprayed commit leans on — the solver's commit
// and round generations (ageStamps) and the engine's per-transfer fold stamp
// — a third of the way in, when transfers, sessions and links are live and
// every one of them carries a stamp the new cycle reuses at once; then again
// on the same Sim after a Reset. A stale stamp read as current would skip a
// fold, a staging or a link's set-up, and move the digest.
func TestFoldStampWraparound(t *testing.T) {
	cfg := sprayScenarioCfg(100_000, 0)
	s := NewSim(sim.NewEngine(), cfg)
	age := func() {
		ageStamps(&s.inc)
		for i := range s.xfers {
			s.xfers[i].folded = uint32(1 + i%2)
		}
		s.foldGen = math.MaxUint32
	}
	for _, run := range []string{"new", "reset"} {
		if got := scenarioDigest(t, s, age); got != fluidSprayShortDigest {
			t.Fatalf("%s Sim: digest %#x != pinned %#x", run, got, fluidSprayShortDigest)
		}
		if s.foldGen > 1<<20 || s.inc.gen > 1<<20 || s.inc.roundGen > 1<<20 {
			t.Fatalf("%s Sim: generations %d / %d / %d never wrapped", run, s.foldGen, s.inc.gen, s.inc.roundGen)
		}
		s.Reset(sim.NewEngine(), cfg)
	}
}

// panicMidDrain runs a scenario on s whose completion handler panics while
// the simulation is in the middle of an instant: solver work staged, the
// flush event filed, the wake event filed. It stops there, as a pool worker's
// point stops when its handler panics, and reports whether the handler found
// all three.
//
// Flow 1 is long and keeps FlowBender's RTT epochs ticking on the grid its
// arrival at 0 starts. Flow 2 is timed to finish on that grid, at tc, within
// an epoch of its arrival, so its wake is filed after the epoch tick at tc.
// Flow 3 arrives at tc, filed before either: its sessions are staged for the
// flush it files behind them. The epoch tick drains flow 2 first, and the
// handler panics with the wake and the flush still filed.
func panicMidDrain(t *testing.T, s *Sim) (staged, flush, wake bool) {
	t.Helper()
	const short = 5000
	lone := NewSim(sim.NewEngine(), s.cfg)
	var dur sim.Time
	lone.OnDone = func(Done) { dur = lone.eng.Now() }
	lone.Arrive(1, 0, 1, short, 0)
	lone.eng.Run(sim.Second)
	if dur <= 0 || dur >= s.rttEpoch {
		t.Fatalf("a lone %d-byte flow takes %d ns, want under one epoch (%d ns)", short, dur, s.rttEpoch)
	}
	const boom = "injected: the handler dies here"
	s.OnDone = func(d Done) {
		if d.ID == 2 {
			staged, flush, wake = s.inc.Pending(), s.flushPend, s.wake != nil
			panic(boom)
		}
	}
	tc := 4 * s.rttEpoch
	s.eng.At(tc-dur, func() { s.Arrive(2, 0, 1, short, 0) })
	s.eng.At(tc, func() { s.Arrive(3, 4, 5, short, 0) })
	s.Arrive(1, 2, 3, 50_000_000, 0)
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("run ended with %v, want the injected panic", r)
		}
	}()
	s.eng.Run(sim.Second)
	return
}

// TestResetAfterPanickedRun: a run that died in its completion handler with
// solver work staged and the wake and flush events filed leaves nothing for
// the next run. The engine is reset and the handler dropped, as a pool
// worker releases its arena; the Sim, reset for ECMP, sprayed (DiffFlow's
// model) and FlowBender runs in turn, each straight after such a death, must
// complete every flow as a new Sim does, in the same number of events.
func TestResetAfterPanickedRun(t *testing.T) {
	fb := func() *core.Config { return &core.Config{T: 0.05, N: 1, RNG: sim.NewRNG(7)} }
	p := topo.SmallScale()
	s := NewSim(sim.NewEngine(), Config{Params: p, FlowBender: fb()})
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"ECMP", func() Config { return Config{Params: p} }},
		{"DiffFlow", func() Config { return sprayScenarioCfg(100_000, 0) }},
		{"FlowBender", func() Config { return Config{Params: p, FlowBender: fb()} }},
	} {
		s.eng.Reset()
		s.Reset(s.eng, Config{Params: p, FlowBender: fb()})
		if staged, flush, wake := panicMidDrain(t, s); !staged || !flush || !wake {
			t.Fatalf("%s: the handler died with staged=%v flush=%v wake=%v, want all three", tc.name, staged, flush, wake)
		}
		s.eng.Reset()
		s.OnDone = nil
		s.Reset(s.eng, tc.cfg())
		warm := scenarioDigest(t, s, nil)
		cold := NewSim(sim.NewEngine(), tc.cfg())
		if want := scenarioDigest(t, cold, nil); warm != want || s.eng.Executed != cold.eng.Executed {
			t.Errorf("%s: after a panicked run: digest %#x in %d events, a new Sim: %#x in %d",
				tc.name, warm, s.eng.Executed, want, cold.eng.Executed)
		}
	}
}

// TestAnalyticalBrackets sanity-checks the M/G/1 twin: its lower bound sits
// below the fluid mean FCT of a light uniform workload, and its estimate
// stays finite and ordered in load.
func TestAnalyticalBrackets(t *testing.T) {
	p := topo.SmallScale()
	mean, m2 := 100_000.0, 100_000.0*100_000.0*2 // exp-ish second moment
	a1 := NewAnalytical(p, 0.1, mean, m2)
	a2 := NewAnalytical(p, 0.8, mean, m2)
	if a1.MeanFCTLower() <= 0 || a1.MeanFCT() < a1.MeanFCTLower() {
		t.Fatalf("lower bound broken: %v / %v", a1.MeanFCTLower(), a1.MeanFCT())
	}
	if a2.MeanFCT() <= a1.MeanFCT() {
		t.Fatalf("P-K wait not increasing in load: %v at 0.8 <= %v at 0.1", a2.MeanFCT(), a1.MeanFCT())
	}

	// Light fluid run vs the bound.
	rng := sim.NewRNG(5).Fork("arrivals")
	eng := sim.NewEngine()
	s := NewSim(eng, Config{Params: p})
	var sum float64
	var n int
	s.OnDone = func(d Done) { sum += float64(d.FCT); n++ }
	at := sim.Time(0)
	for i := 0; i < 100; i++ {
		at += rng.Exp(200 * sim.Microsecond)
		id := netsim.FlowID(i + 1)
		src := int32(rng.Intn(p.NumHosts()))
		dst := int32(rng.IntnExcept(p.NumHosts(), int(src)))
		at, src, dst := at, src, dst
		eng.At(at, func() { s.Arrive(id, src, dst, 100_000, 0) })
	}
	eng.Run(10 * sim.Second)
	fluidMean := sim.Time(sum / float64(n))
	bound := NewAnalytical(p, 0.05, 100_000, 100_000*100_000).MeanFCTLower()
	if fluidMean < bound {
		t.Fatalf("fluid mean FCT %v below the no-queueing analytical bound %v", fluidMean, bound)
	}
}
