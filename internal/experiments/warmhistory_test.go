package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/runpool"
	"flowbender/internal/sim"
	"flowbender/internal/stats"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// historyJob is one simulation point of the arena-history test: a label that
// says everything that decides its outcome, and a run that renders the
// outcome — every measurement the point's experiment would print from, in
// full precision — under the Options it is given (seed and scale set, the
// pool's slot and arena behind execPool).
type historyJob struct {
	label string
	o     Options
	run   func(o Options) string
}

// render runs the job and appends the events it executed: a fabric that kept
// a hook or a flag from its last point can leave every measurement where it
// was and still run a different schedule.
func (j historyJob) render(o Options) string {
	o.Seed, o.Scale, o.FlowCount, o.JobCount, o.debugMaxWait = j.o.Seed, j.o.Scale, j.o.FlowCount, j.o.JobCount, j.o.debugMaxWait
	o.Perf = &PerfStats{}
	out := j.run(o)
	return fmt.Sprintf("%s events=%d", out, o.Perf.Events.Load())
}

func sketchText(b *stats.BinnedSketch) string {
	var sb strings.Builder
	for i := range b.Bins {
		s := &b.Bins[i]
		fmt.Fprintf(&sb, " [%d %v %v]", s.N(), s.Mean(), s.Percentile(99))
	}
	return sb.String()
}

func outcomeText(r *runOutcome) string {
	return fmt.Sprintf("fct%s pkts=%d ooo=%d rto=%d retx=%d reroutes=%d incomplete=%d t=%v",
		sketchText(&r.FCT), r.DataPackets, r.OutOfOrder, r.Timeouts, r.Retransmits, r.Reroutes, r.Incomplete, r.SimTime)
}

// errInjected is what the hostile jobs panic with, mid-run.
const errInjected = "injected: the point dies here"

// hostilePoint is a point that does to its fabric what no built-in scenario
// does all at once, and then does not finish: a cable cut and left down,
// another gray, a port degraded, ECN muted on every switch, a UDP sink left
// registered, and a panic out of the third flow completion, with the rest in
// flight. What a reset forgets of this, the next point on the fabric finds.
// With testbed it runs on the small testbed instead of the Options' fat-tree.
func hostilePoint(o Options, scheme Scheme, testbed bool) string {
	var lp *topo.Params
	n := o.params().NumHosts()
	if testbed {
		small := topo.SmallTestbed()
		lp, n = &small, small.NumHosts()
	}
	done := 0
	o.runPoint(point{scheme: scheme, params: lp, flows: n, burst: true,
		workload: func(*sim.RNG, topo.Params) (workload.Schedule, sim.Time) {
			specs := make([]workload.FlowSpec, n)
			for i := range specs {
				specs[i] = workload.FlowSpec{SrcIdx: int32(i), DstIdx: int32((i + n/2) % n), Size: 400_000}
			}
			return &batches{specs}, sim.Second
		},
		arm: func(ft *topo.FatTree, _ *sim.RNG) (func(), error) {
			cut, gray := ft.TorAggLinks[0][0][1], ft.TorAggLinks[0][1][2]
			if !testbed {
				cut, gray = ft.AggCoreLinks[0][0][0], ft.TorAggLinks[0][0][1]
			}
			ft.Eng.At(200*sim.Microsecond, func() {
				cut.AtoB.SetLinkDown(true)
				cut.BtoA.SetLinkDown(true)
				n := 0
				gray.AtoB.SetLinkDropFn(func(*netsim.Packet) bool { n++; return n%50 == 0 })
				gray.BtoA.SetRate(gray.BtoA.RateBps / 4)
				for _, s := range ft.AllSwitches() {
					for _, p := range s.Ports {
						p.Q.MarkK = 0
					}
				}
			})
			ft.Hosts[1].Register(9999, discard{})
			return nil, nil
		},
		onDone: func(int, workload.PatternKind, *tcp.Flow) {
			if done++; done == 3 {
				panic(errInjected)
			}
		}})
	return "unreachable"
}

// probeSelector is a scheme's selector that also folds what a selector may
// read of its switch — each candidate port's queue and the end of its last
// transmission — into a sum, so that a point renders what its selectors saw
// and not only what they chose.
type probeSelector struct {
	netsim.Selector
	sum *uint64
}

func (p probeSelector) Select(sw *netsim.Switch, pkt *netsim.Packet, eligible []int32) int32 {
	for _, e := range eligible {
		*p.sum = (*p.sum^uint64(sw.LastTxEnd(e))^uint64(sw.QueueBytes(e))<<40)*1099511628211 + 1
	}
	return p.Selector.Select(sw, pkt, eligible)
}

type discard struct{}

func (discard) Deliver(*netsim.Packet) {}

// historyJobs draws the test's points: n of them, in an order and with
// parameters rng decides.
func historyJobs(rng *sim.RNG, n int) []historyJob {
	scenarios := FaultScenarioNames()
	wcmp := []WCMPVariant{{Name: "ECMP"}, {Name: "coarse", Weights: map[int32]int{0: 1, 1: 1, 2: 1, 3: 2}},
		{Name: "coarse+FB", FlowBender: true, Weights: map[int32]int{0: 1, 1: 1, 2: 1, 3: 2}}}
	var jobs []historyJob
	for len(jobs) < n {
		s := AllSchemes[rng.Intn(len(AllSchemes))]
		if rng.Intn(4) == 0 {
			s = []Scheme{Flowlet, FlowDyn}[rng.Intn(2)] // the two that keep state in the switch
		}
		o := Options{Seed: int64(1 + rng.Intn(2)), Scale: ScaleLevel(rng.Intn(2)), FlowCount: 30}
		at := fmt.Sprintf("%s/%s/seed=%d", s, o.Scale, o.Seed)
		var j historyJob
		switch rng.Intn(15) {
		case 0, 1:
			load := DefaultLoads[rng.Intn(len(DefaultLoads))]
			j = historyJob{fmt.Sprintf("alltoall/load=%g/%s", load, at), o, func(o Options) string {
				return outcomeText(o.runAllToAll(allToAllSpec{scheme: s, load: load}))
			}}
		case 2:
			// A point on the same devices under other queue bounds: what a
			// reset re-derives from the configuration has to be re-derived.
			j = historyJob{"alltoall/shallow/" + at, o, func(o Options) string {
				p := o.params()
				p.QueueCap, p.MarkK = 15*topo.KB, 6*topo.KB
				return outcomeText(o.runAllToAll(allToAllSpec{scheme: s, load: 0.6, params: &p}))
			}}
		case 3:
			// Cut by its deadline: flows incomplete, packets everywhere.
			o.debugMaxWait = 2 * sim.Millisecond
			j = historyJob{"alltoall/cut-short/" + at, o, func(o Options) string {
				out := o.runAllToAll(allToAllSpec{scheme: s, load: 0.6})
				if out.Incomplete == 0 {
					panic("the deadline cut nothing short")
				}
				return outcomeText(out)
			}}
		case 4:
			j = historyJob{"production/" + at, o, func(o Options) string {
				cdf, _ := workload.NamedCDF(o.workloadName())
				m := o.runProduction(s, cdf, 60)
				return fmt.Sprintf("fct%s %d/%d kinds=%v pkts=%d ooo=%d rto=%d retx=%d reroutes=%d",
					sketchText(&m.fct), m.completed, m.started, m.kinds, m.dataPackets, m.outOfOrder, m.timeouts, m.retransmits, m.reroutes)
			}}
		case 5:
			j = historyJob{"table1/" + at, o, func(o Options) string {
				mean, max := o.runValidation(s, nil, o.params().PathsBetweenPods(), 2_000_000)
				return fmt.Sprint(mean, max)
			}}
		case 6:
			o.JobCount = 6
			j = historyJob{"partagg/" + at, o, func(o Options) string { return fmt.Sprint(o.runPartAgg(s, 8, 0.4, 1_000_000)) }}
		case 7:
			j = historyJob{"testbed/" + at, o, func(o Options) string {
				lp := topo.SmallTestbed()
				if o.Scale == ScaleSmall {
					lp = topo.TestbedScale()
				}
				sk := o.runTestbed(lp, s, 0.4, 30, 1_000_000)
				return fmt.Sprint(sk.N(), sk.Mean(), sk.Percentile(99))
			}}
		case 8:
			v := wcmp[rng.Intn(len(wcmp))]
			j = historyJob{fmt.Sprintf("wcmp/%s/seed=%d", v.Name, o.Seed), o, func(o Options) string { return fmt.Sprint(o.runWCMP(v)) }}
		case 9:
			o.Scale = ScaleTiny // the measurement window is the cost
			s = []Scheme{ECMP, FlowBender}[rng.Intn(2)]
			j = historyJob{fmt.Sprintf("hotspot/%s/seed=%d", s, o.Seed), o, func(o Options) string { return fmt.Sprintf("%+v", o.runHotspot(s)) }}
		case 10, 11:
			sc := selectScenarios([]string{scenarios[rng.Intn(len(scenarios))]})[0]
			j = historyJob{fmt.Sprintf("faults/%s/%s", sc.name, at), o, func(o Options) string {
				r := &FaultMatrixResult{FlowBytes: 1_000_000, FailAt: sim.Millisecond, Deadline: 300 * sim.Millisecond}
				return fmt.Sprintf("%+v", r.runOne(o, faultPoint{scenario: sc, scheme: s}))
			}}
		case 12:
			testbed := rng.Intn(2) == 0
			j = historyJob{fmt.Sprintf("hostile/leafspine=%v/%s", testbed, at), o, func(o Options) string { return hostilePoint(o, s, testbed) }}
		case 13:
			// The same death on an undamaged fabric, arrivals replayed one
			// beacon each.
			j = historyJob{"hostile/point/" + at, o, func(o Options) string {
				done := 0
				o.runPoint(point{scheme: s, flows: 12,
					workload: func(_ *sim.RNG, p topo.Params) (workload.Schedule, sim.Time) {
						bs := make(batches, 12)
						for i := range bs {
							bs[i] = []workload.FlowSpec{{At: sim.Time(i) * 5 * sim.Microsecond, SrcIdx: int32(i),
								DstIdx: int32((i + p.NumHosts()/2) % p.NumHosts()), Size: 300_000}}
						}
						return &bs, sim.Second
					},
					onDone: func(int, workload.PatternKind, *tcp.Flow) {
						if done++; done == 3 {
							panic(errInjected)
						}
					}})
				return "unreachable"
			}}
		case 14:
			j = historyJob{"alltoall/probed/" + at, o, func(o Options) string {
				var seen uint64
				out := o.runAllToAll(allToAllSpec{scheme: s, load: 0.4, setupFn: func(rng *sim.RNG) schemeSetup {
					set := s.setup(rng, core.Config{}, false)
					set.sel = probeSelector{set.sel, &seen}
					return set
				}})
				return fmt.Sprintf("%s selectors saw %x", outcomeText(out), seen)
			}}
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// history is the registry entry the jobs run as: every job goes onto the run's
// shared pool as one named point, so a job that panics is a failed point —
// runpool recovers it, releaseArena runs on the way out — and the rest run on
// whatever arenas the pool then holds.
type history struct {
	labels []string
	outs   []runpool.TaskResult[string]
}

func runHistory(o Options, jobs []historyJob, oneByOne bool) *history {
	name := func(j historyJob) string { return j.label }
	h := &history{}
	for _, j := range jobs {
		h.labels = append(h.labels, j.label)
	}
	render := func(o Options, j historyJob) string { return j.render(o) }
	if !oneByOne {
		h.outs = runPoints(o, "history", 1, jobs, name, render)
		return h
	}
	for _, j := range jobs {
		h.outs = append(h.outs, runPoints(o, "history", 1, []historyJob{j}, name, render)...)
	}
	return h
}

func (h *history) Print(w io.Writer) {
	for i, r := range h.outs {
		if r.Err != nil {
			fmt.Fprintf(w, "%s: FAILED: %v\n", h.labels[i], r.Err)
		} else {
			fmt.Fprintf(w, "%s: %s\n", h.labels[i], r.Val)
		}
	}
}

// warmHistorySeeds are the job orders TestWarmPacketPointMatchesCold runs.
// Each earns its place by noticing, one worker at a time, a reset broken in a
// scratch copy — Port.init, Host.Reset or Switch.Reset made to keep one thing
// of a port, host or switch that has carried traffic:
//
//	kept from the point before                         noticed by seed
//	the ledger's ring with its head and count          1, 9, 14, 20, 27
//	lastTxEnd                                          9, 20, 27 (through probeSelector alone)
//	Link.Down                                          1, 14, 20, 27
//	RateBps (a degrade, runWCMP's edit)                1, 9, 20, 27
//	Q.MarkK (ECN muted)                                1, 9, 14, 20, 27
//	paused                                             14, 20
//	the handler table's entries                        1, 9, 14, 20, 27
//	selScratch, in Reset and in SetSelector            1, 9, 14, 20, 27
//	onSent, from a PFC point on a plain one            1, 9, 14, 20 (through the event count alone)
//	Q.Cap, from a plain point on a PFC one             9
//
// and of what the list does not name: Link.DropFn 14, 20, 27; busy/armed/cur
// and the queue's FIFO, all five; Host.crossing 14, 20; txBytes 1, 9, 14.
// Seed 27 is there for the testbed's leaf-spine (the one-pod fat-tree): a
// hostile point on the small testbed with WCMP, testbed and hotspot points
// around it.
var warmHistorySeeds = []int64{1, 9, 14, 20, 27}

// TestWarmPacketPointMatchesCold: a packet point's outcome does not depend on
// what its worker ran before. Random orders of points — every scheme, two
// scales, the fault scenarios, both topologies, every experiment's point,
// points cut short by their deadline and points that panic in
// the middle of a run — go through runExperiments onto one pool, first one
// at a time on one worker (each point inherits the arena of the one before),
// then all at once on four (arenas change hands; under -race this is also
// the proof that two workers' fabrics share nothing). Every point must render
// exactly what it renders alone on a pool of its own.
func TestWarmPacketPointMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs some two hundred small points")
	}
	cold := map[string]string{}
	var all bytes.Buffer
	defer func() {
		for _, must := range []string{errInjected, "alltoall/cut-short/", "hostile/point/", "hostile/leafspine=true", "hostile/leafspine=false"} {
			if !strings.Contains(all.String(), must) {
				t.Errorf("no point of any order is a %q", must)
			}
		}
		if strings.Contains(all.String(), "cut nothing short") {
			t.Error("a point meant to be cut by its deadline finished")
		}
	}()
	for _, seed := range warmHistorySeeds {
		jobs := historyJobs(sim.NewRNG(seed), 16)
		var want bytes.Buffer
		want.WriteString("==== history — points in order ====\n")
		for _, j := range jobs {
			if _, ok := cold[j.label]; !ok {
				h := runHistory(Options{Parallelism: 1}, []historyJob{j}, true)
				var b bytes.Buffer
				h.Print(&b)
				cold[j.label] = b.String()
			}
			want.WriteString(cold[j.label])
		}
		want.WriteString("\n")
		all.Write(want.Bytes())
		for _, par := range []int{1, 4} {
			reg := []RegistryEntry{{Name: "history", Desc: "points in order",
				Run: func(o Options) Printable { return runHistory(o, jobs, par == 1) }}}
			var got bytes.Buffer
			runExperiments(Options{Parallelism: par}, &got, reg)
			if got.String() != want.String() {
				t.Errorf("seed %d, %d workers: points on inherited arenas differ from the same points alone:\n%s",
					seed, par, lineDiff(want.String(), got.String()))
			}
		}
	}
}

// lineDiff shows the lines of got that differ from want's.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := range w {
		if i >= len(g) || w[i] != g[i] {
			have := "(missing)"
			if i < len(g) {
				have = g[i]
			}
			fmt.Fprintf(&sb, "  alone:     %s\n  inherited: %s\n", w[i], have)
		}
	}
	return sb.String()
}
