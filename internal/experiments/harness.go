package experiments

import (
	"fmt"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
	"flowbender/internal/stats"
	"flowbender/internal/tcp"
	"flowbender/internal/workload"
)

func sprintfLn(format string, args ...any) string {
	s := fmt.Sprintf(format, args...)
	if len(s) == 0 || s[len(s)-1] != '\n' {
		s += "\n"
	}
	return s
}

// runOutcome aggregates one simulation run's measurements.
type runOutcome struct {
	// Flows holds the packet-engine flows whose arrival the run reached, in
	// arrival order.
	Flows []*tcp.Flow

	// Binned receiver-side flow completion times, in seconds. The sketch
	// stays exact (bit-identical to the historical BinnedSample) below its
	// per-bin cap, which every table-scale run fits; past the cap it
	// collapses to flat-memory streaming quantiles.
	FCT stats.BinnedSketch

	DataPackets int64
	OutOfOrder  int64
	Timeouts    int64
	Retransmits int64
	Reroutes    int64
	Incomplete  int
	SimTime     sim.Time
	// Engines is how many engines the point ran on (1 = serial).
	Engines int
}

func (r *runOutcome) collect() {
	for _, f := range r.Flows {
		if !f.Done() {
			r.Incomplete++
			continue
		}
		r.FCT.Add(f.Size, f.FCT().Seconds())
		r.DataPackets += f.DataPackets()
		r.OutOfOrder += f.OutOfOrder()
		r.Timeouts += f.Sender().Timeouts
		r.Retransmits += f.Sender().Retransmits
		r.Reroutes += f.FlowBenderStats().Reroutes
	}
}

// OOOFraction returns the fraction of data packets that arrived out of
// order (§4.2.3's metric).
func (r *runOutcome) OOOFraction() float64 {
	if r.DataPackets == 0 {
		return 0
	}
	return float64(r.OutOfOrder) / float64(r.DataPackets)
}

// drainChunk is the barrier grid every drain loop stops on.
const drainChunk = 5 * sim.Millisecond

// drain advances the engine in chunks until done() or the deadline,
// servicing the point's checkpoint obligations at every chunk boundary:
// the engine is quiescent there (Run leaves now == the boundary), making
// it a safe — and deterministically reproducible — watermark instant.
func (o Options) drain(eng *sim.Engine, deadline sim.Time, done func() bool) {
	ck := o.ckptTracker()
	for eng.Now() < deadline && !done() {
		next := eng.Now() + drainChunk
		if next > deadline {
			next = deadline
		}
		eng.Run(next)
		ck.tick(eng.Now(), eng)
		if eng.Pending() == 0 {
			return
		}
	}
}

// bed is the one-engine packet substrate the drain-to-completion experiments
// outside the point runner (leaf-spine fabrics, fault plans, job workloads)
// build on: the engine, the root RNG their workload/fault streams fork from,
// the scheme setup, and the flows the drain predicate reads.
type bed struct {
	o   Options
	ar  *arena
	eng *sim.Engine
	rng *sim.RNG
	set schemeSetup

	// flows are the flows started, in arrival order; flow i runs under ID i+1.
	flows     []*tcp.Flow
	completed int
}

// newBed sets scheme up exactly as §4.2 describes (see Scheme.setup).
func (o Options) newBed(scheme Scheme) *bed {
	b := o.newBedWith(schemeSetup{})
	b.set = scheme.setup(b.rng.Fork("scheme"), core.Config{})
	return b
}

// newBedWith builds a bed around a given setup, on an engine from the
// worker's arena; the experiment hands it back with release.
func (o Options) newBedWith(set schemeSetup) *bed {
	ar := o.takeArena()
	return &bed{o: o, ar: ar, eng: ar.engine(0), rng: sim.NewRNG(o.Seed), set: set}
}

// release returns the bed's engine to the worker's arena. Nothing may read
// the engine afterwards.
func (b *bed) release() { b.o.releaseArena(b.ar) }

// start starts the bed's next flow under the scheme's transport
// configuration and counts its completion.
func (b *bed) start(src, dst *netsim.Host, size int64) {
	f := tcp.StartFlow(b.eng, b.set.cfg, netsim.FlowID(len(b.flows)+1), src, dst, size)
	b.flows = append(b.flows, f)
	f.OnComplete = func(*tcp.Flow) { b.completed++ }
}

// replay starts the first planned flows of src between hosts, through
// workload.Replay. The bed's bounded schedules are drawn one arrival past
// planned: that beacon fires and starts nothing, and the experiments'
// executed-event counts pin it.
func (b *bed) replay(src workload.Schedule, hosts []*netsim.Host, planned int) {
	workload.Replay(b.eng, src, false, func(i int, s workload.FlowSpec) {
		if i < planned {
			b.start(hosts[s.SrcIdx], hosts[s.DstIdx], s.Size)
		}
	})
}

// drain runs until `planned` flows have started and every started flow has
// completed (or the deadline), then records the engine's perf totals.
func (b *bed) drain(deadline sim.Time, planned int) {
	b.o.drain(b.eng, deadline, func() bool { return len(b.flows) == planned && b.completed == planned })
	b.o.recordPerf(b.eng)
}
