package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flowbender/internal/experiments"
)

const (
	// setupFrac is the size of a set-up pass relative to a measured pass.
	setupFrac = 0.25
	// A run makes reference set-up passes until they have taken setupShare of
	// the measuring time together, and at least minSetups of them.
	minSetups  = 2
	setupShare = 0.2
	// minPasses is the least number of measured passes a run reports on,
	// however short --seconds is.
	minPasses = 3
)

// runConfig is one benchmark run.
type runConfig struct {
	w        benchWorkload
	seed     int64
	seconds  float64 // measuring time; passes repeat until it is spent
	frac     float64 // size scale, 1 outside tests
	declPath string  // BENCHMARK.json
	outDir   string  // where the traced run writes its span file and scratch
	log      io.Writer
}

func (c runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "bench: "+format+"\n", args...)
}

// passCost is the host cost of one pass.
type passCost struct {
	wall    float64 // seconds
	cpu     float64 // user plus system seconds of the process
	allocMB float64 // heap bytes allocated, live or not
	gcMs    float64 // stop-the-world pause total
	peakMB  float64 // resident high-water mark
}

// timedPass runs one pass of w and returns what it cost. Before the clock
// starts the heap is collected, so every pass begins from the same live
// heap, and the kernel's resident high-water mark is restarted, so the peak
// is this pass' own (the process' so far where it cannot be restarted).
func timedPass(w benchWorkload, o experiments.Options) (passResult, passCost) {
	runtime.GC()
	// "5" restarts VmHWM; see proc(5), clear_refs.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuSeconds(), time.Now()
	p := w.run(o)
	c := passCost{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&m1)
	c.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	c.gcMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	c.peakMB = peakRSSMB()
	return p, c
}

// runUntraced measures the end-to-end metrics: set-up passes at a quarter of
// the size, then identical passes of the reference realisation until the
// measuring time is spent. Both times are those of the fastest pass: every
// pass simulates the same input on one thread, so whatever a pass takes beyond
// the fastest was added by the host, not by the program.
func runUntraced(c runConfig) (result, string) {
	rep := newReport(endToEnd)

	// Set-up simulates the --seed realisation once, so every seed's output is
	// checked, and then the reference realisation, which alone is timed:
	// setup_s does not move with the seed.
	seeded, _ := timedPass(c.w, c.w.sized(c.seed, c.frac*setupFrac))
	rep.addPass(seeded)
	var setups []float64
	var digests []string
	for spent := 0.0; len(setups) < minSetups || spent < c.seconds*setupShare; {
		p, cost := timedPass(c.w, c.w.sized(refSeed, c.frac*setupFrac))
		rep.addPass(p)
		setups = append(setups, cost.wall)
		digests = append(digests, p.digest)
		spent += cost.wall
	}
	rep.sameDigest("set-up", digests)
	rep.set("setup_s", slices.Min(setups))

	var walls, allocs []float64
	var flows int64
	var spent float64
	digests = digests[:0]
	for len(walls) < minPasses || spent+walls[len(walls)-1] <= c.seconds {
		o := c.w.sized(refSeed, c.frac)
		o.Perf = &experiments.PerfStats{}
		p, cost := timedPass(c.w, o)
		rep.addPass(p)
		walls = append(walls, cost.wall)
		allocs = append(allocs, cost.allocMB)
		digests = append(digests, p.digest)
		flows = o.Perf.FlowsCompleted.Load()
		spent += cost.wall
	}
	rep.sameDigest("measured passes", digests)
	wall := slices.Min(walls)
	rep.set("wall_s", wall)
	rep.set("flows_per_sec", float64(flows)/wall)
	rep.set("alloc_mb", median(allocs))
	q1, q2, q3 := quartiles(walls)
	c.logf("%s: %d set-up passes, fastest %.3f s; %d measured passes, fastest %.3f s, quartiles %.3f %.3f %.3f s, median allocation %.2f MB",
		c.w.name, len(setups), slices.Min(setups), len(walls), wall, q1, q2, q3, median(allocs))
	return rep.finish(c.declPath, false), digests[0]
}

// peakRSSMB reads the process' resident high-water mark from the kernel.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process' user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runTraced measures the per-layer metrics: one instrumented harness pass,
// the same pass at the other parallelism, the mirror point untraced and
// traced around the harness' own run of that point, the layer probes, and
// for suite-tiny every registered experiment on its own.
func runTraced(c runConfig) (result, string, error) {
	rep := newReport(perLayer)
	w := c.w

	// A set-up pass on the --seed realisation, checked like any other.
	warm, _ := timedPass(w, w.sized(c.seed, c.frac*setupFrac))
	rep.addPass(warm)

	// The instrumented harness pass.
	o := w.sized(refSeed, c.frac)
	pass, cost := timedPass(w, o)
	rep.addPass(pass)
	rep.set("experiments.peak_rss_mb", cost.peakMB)
	rep.set("experiments.gc_pause_ms", cost.gcMs)
	rep.set("experiments.cpu_s", cost.cpu)
	rep.set("experiments.render_ms", pass.renderS*1e3)
	jsonS := 0.0
	if pass.res != nil {
		t0 := time.Now()
		if err := experiments.WriteJSON(io.Discard, pass.res); err != nil {
			rep.failf("WriteJSON: %v", err)
		}
		jsonS = time.Since(t0).Seconds()
	}
	rep.set("experiments.json_ms", jsonS*1e3)
	rep.set("runpool.utilisation_pct", cost.cpu/(cost.wall*float64(runtime.GOMAXPROCS(0)))*100)
	rep.set("core.fb_mean_norm", pass.fbMeanNorm)
	rep.set("core.fb_p99_norm", pass.fbP99Norm)

	// The same pass at the other parallelism: the pool's speed-up, and a
	// check that parallelism leaves the output alone.
	other := o
	other.Parallelism = 3 - o.Parallelism
	otherPass, otherCost := timedPass(w, other)
	rep.addPass(otherPass)
	rep.sameDigest("parallelism 1 and 2", []string{pass.digest, otherPass.digest})
	if o.Parallelism == 1 {
		rep.set("runpool.p2_speedup", cost.wall/otherCost.wall)
	} else {
		rep.set("runpool.p2_speedup", otherCost.wall/cost.wall)
	}

	// The mirror points: untraced, the harness' own run of each point that
	// has a single-point entry, then traced.
	spec := w.mirror.sized(c.frac)
	runMirror(nil, spec, c.seed, spec.schemes[0]) // untimed: grows heap and pools for all that follow
	tr := newTracer()
	var plain, traced mirrorCounts
	var ecmpPlain, ecmpHarness time.Duration
	for _, s := range spec.schemes {
		p, t := runMirror(nil, spec, c.seed, s), runMirror(tr, spec, c.seed, s)
		plain.add(p)
		traced.add(t)
		if p.events != t.events {
			rep.failf("mirror %s point executed %d events untraced and %d traced", s, p.events, t.events)
		}
		if !spec.mix && s != experiments.ECMP {
			continue
		}
		wall, events := harnessPoint(spec, c.seed, s)
		if int64(t.events) != events {
			rep.failf("mirror %s point executed %d events, the harness %d", s, t.events, events)
		}
		if s == experiments.ECMP {
			ecmpPlain, ecmpHarness = p.wall, wall
		}
	}
	rep.attempted += int64(len(spec.schemes) * spec.flows)
	rep.failed += traced.incomplete
	rep.set("experiments.point_overhead_pct", (1-ecmpPlain.Seconds()/ecmpHarness.Seconds())*100)
	rep.set("trace_overhead_pct", (traced.wall.Seconds()/plain.wall.Seconds()-1)*100)
	mirrorMetrics(rep, tr, traced, spec)

	// Probes.
	probeBenchkit(rep)
	probeRouting(rep)
	probeCore(rep)
	probeStats(rep)
	probeSolver(rep)
	probeSharding(rep)
	probeFidelity(rep)
	probeRunpool(rep)
	probeStartAndBuild(rep)
	if err := probeCheckpoint(rep, c.outDir); err != nil {
		return result{}, "", err
	}
	rep.set("sim.queue_share_pct", ratio(rep.metrics["sim.schedule_ns"].Value*float64(traced.events),
		float64(tr.stat("sim.run").SelfNs))*100)

	// Every registered experiment on its own, for the workload that runs
	// them all; the others run none of them.
	for _, e := range experiments.Registry {
		name := "exp." + e.Name + "_s"
		if !w.wholeRegistry {
			rep.set(name, 0)
			continue
		}
		eo := w.sized(refSeed, c.frac)
		eo.Parallelism = 1
		tr.newPoint()
		tr.begin(name)
		e.Run(eo).Print(io.Discard)
		tr.end()
		rep.set(name, tr.stat(name).totalS())
	}

	tracePath := filepath.Join(c.outDir, "trace-"+w.name+".json")
	if err := tr.write(tracePath, w.name, c.seed); err != nil {
		return result{}, "", err
	}
	c.logf("%s: spans written to %s", w.name, tracePath)
	return rep.finish(c.declPath, true), pass.digest, nil
}

// ratio is a/b, or 0 where the layer b counts did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mirrorMetrics turns the traced mirror's spans and counters into the
// per-layer metrics. A layer the point did not enter reports zero.
func mirrorMetrics(rep *report, tr *tracer, c mirrorCounts, spec mirrorSpec) {
	run, point := tr.stat("sim.run"), tr.stat("point")
	events := float64(c.events)

	rep.set("sim.events", events)
	rep.set("sim.run_self_s", run.selfS())
	rep.set("sim.ns_per_event", ratio(float64(run.SelfNs), events))
	rep.set("unattributed_pct", ratio(float64(point.SelfNs), float64(point.TotalNs))*100)

	rep.set("netsim.hops", float64(c.hops))
	rep.set("netsim.events_per_hop", ratio(events, float64(c.hops)))
	rep.set("netsim.drops", float64(c.drops))
	rep.set("netsim.marked_pct", ratio(float64(c.marked), float64(c.enqueued))*100)
	rep.set("netsim.max_queue_kb", float64(c.maxQueueBytes)/1000)

	start := tr.stat("tcp.start")
	rep.set("tcp.start_s", start.totalS())
	rep.set("tcp.start_us_per_flow", start.perCall(1e3))
	rep.set("tcp.data_packets", float64(c.dataPackets))
	rep.set("tcp.retransmits", float64(c.retransmits))
	rep.set("tcp.timeouts", float64(c.timeouts))
	rep.set("tcp.ooo_pct", ratio(float64(c.outOfOrder), float64(c.dataPackets))*100)
	rep.set("tcp.goodput_ratio", ratio(float64(c.dataPackets), float64(c.dataPackets+c.retransmits)))

	rep.set("core.reroutes", float64(c.fb.Reroutes))
	rep.set("core.epochs", float64(c.fb.Epochs))
	rep.set("core.congested_epoch_pct", ratio(float64(c.fb.CongestedEpochs), float64(c.fb.Epochs))*100)
	rep.set("core.suppressed_by_gap", float64(c.fb.SuppressedByGap))

	rep.set("topo.build_ms", tr.stat("topo.build").perCall(1e6))
	rep.set("fluid.net_build_ms", tr.stat("fluid.net_build").perCall(1e6))

	draw := tr.stat("workload.draw")
	rep.set("workload.draw_s", draw.totalS())
	rep.set("workload.draw_ns_per_flow", ratio(float64(draw.TotalNs), float64(len(spec.schemes)*spec.flows)))

	rep.set("stats.record_s", tr.stat("stats.record").totalS())
	rep.set("stats.collapsed_bins", float64(c.collapsedBins))
	rep.set("experiments.drain_check_s", tr.stat("experiments.drain_check").totalS())

	arrive := tr.stat("fluid.arrive")
	rep.set("fluid.arrive_s", arrive.totalS())
	rep.set("fluid.arrive_us_per_flow", arrive.perCall(1e3))
	rep.set("fluid.peak_active_flows", float64(c.peakActive))
	// From outside, the solver's work inside engine events cannot be told
	// from event dispatch: on a fluid point the run chunks' self time is
	// reported under both layers, on a packet point under sim alone.
	var fluidRun spanStat
	var fluidEvents, fluidReroutes float64
	if spec.engine == experiments.EngineFluid {
		fluidRun, fluidEvents, fluidReroutes = run, events, float64(c.fb.Reroutes)
	}
	rep.set("fluid.run_self_s", fluidRun.selfS())
	rep.set("fluid.us_per_event", ratio(float64(fluidRun.SelfNs)/1e3, fluidEvents))
	rep.set("fluid.events_per_flow", ratio(fluidEvents, float64(c.flows)))
	rep.set("fluid.reroutes", fluidReroutes)
}
