package experiments

import (
	"sync/atomic"
	"time"

	"flowbender/internal/sim"
)

// PerfStats accumulates simulator throughput over every simulation point an
// experiment runs: total events executed and total virtual time simulated.
// Combined with the wall-clock time of the run it yields the two headline
// throughput figures — events per wall second and simulated seconds per wall
// second — that `fbsim -v` prints and the repository benchmark reports.
//
// The counters are books of work executed, not of results reported: a
// fluid-engine sweep simulates schemes with identical fluid models once (see
// runPoints), and a point that receives another's outcome adds nothing here.
//
// Points run concurrently on the experiment pool, so the counters are
// atomic; attach one PerfStats via Options.Perf and read it after the
// experiment returns.
type PerfStats struct {
	// Events counts engine events executed across all simulated points.
	Events atomic.Int64
	// SimNanos sums the virtual time each simulated point's engine reached.
	SimNanos atomic.Int64
	// FlowsCompleted counts transport flows that delivered their full
	// payload, across all simulated points of the experiments that report
	// it (the production mix and the all-to-all family).
	FlowsCompleted atomic.Int64
}

// ShardEvents returns nil: every point runs on one engine. Its one caller is
// the repository benchmark (bench/), whose shard event-skew figure it feeds.
func (p *PerfStats) ShardEvents() []int64 { return nil }

// FlowsPerSec returns completed flows per wall-clock second.
func (p *PerfStats) FlowsPerSec(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(p.FlowsCompleted.Load()) / wall.Seconds()
}

// EventsPerSec returns executed events per wall-clock second.
func (p *PerfStats) EventsPerSec(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(p.Events.Load()) / wall.Seconds()
}

// SimSecPerWallSec returns simulated seconds advanced per wall-clock second.
func (p *PerfStats) SimSecPerWallSec(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return (sim.Time(p.SimNanos.Load())).Seconds() / wall.Seconds()
}

// recordFlows folds one finished simulation point's completed-flow count
// into the attached PerfStats, if any.
func (o Options) recordFlows(n int64) {
	if o.Perf == nil {
		return
	}
	o.Perf.FlowsCompleted.Add(n)
}

// recordPerf folds one finished simulation point into the attached
// PerfStats, if any: the events its engine executed and the virtual time it
// reached. runPoint calls it right after the engine drains.
func (o Options) recordPerf(eng *sim.Engine) {
	if o.Perf == nil {
		return
	}
	o.Perf.Events.Add(int64(eng.Executed))
	o.Perf.SimNanos.Add(int64(eng.Now()))
}
