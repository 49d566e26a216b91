package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"flowbender/internal/checkpoint"
	"flowbender/internal/runpool"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// ScaleLevel selects the fabric size and sample counts of a run.
type ScaleLevel int

// Supported scales.
const (
	// ScaleTiny is for unit tests: 16 servers, very few flows.
	ScaleTiny ScaleLevel = iota
	// ScaleSmall (default) preserves the paper's oversubscription and
	// flows-per-path ratio on a 64-server fabric.
	ScaleSmall
	// ScalePaper is the full §4.2 configuration: 128 servers, 8 paths
	// between pods, and larger samples.
	ScalePaper
	// ScaleHyper is a 10k-host fabric (16 pods × 16 ToRs × 40 servers)
	// far beyond what the packet engine can execute; it exists for the
	// fluid engine's scaling runs (RegistryEntry.CheckScale refuses a
	// packet-level fabric there).
	ScaleHyper
	// ScaleMega is a 102,400-host fabric (32 pods × 32 ToRs × 100
	// servers), the incremental fluid solver's headline rung. Like hyper
	// it is fluid-only; per-link and per-host state is dense arrays, so
	// the whole fabric fits in tens of MB.
	ScaleMega
)

// scales is the one table of fabric scales, indexed by ScaleLevel: the name
// -scale accepts, the fat-tree it builds, the default sample counts, and
// whether only the fluid engine can execute it (a packet run there would
// need days and tens of GB).
var scales = [...]struct {
	name      string
	params    topo.Params
	flows     int
	jobs      int
	fluidOnly bool
}{
	ScaleTiny:  {"tiny", topo.TinyScale(), 200, 30, false},
	ScaleSmall: {"small", topo.SmallScale(), 1500, 150, false},
	ScalePaper: {"paper", topo.PaperScale(), 4000, 300, false},
	ScaleHyper: {"hyper", topo.HyperScale(), 100000, 150, true},
	ScaleMega:  {"mega", topo.MegaScale(), 250000, 150, true},
}

// ScaleByName parses a -scale flag value.
func ScaleByName(name string) (ScaleLevel, bool) {
	for s, row := range scales {
		if row.name == name {
			return ScaleLevel(s), true
		}
	}
	return 0, false
}

// scaleNames lists the scales a packet-level fabric can be built at, or
// those only the fluid engine executes, in table order.
func scaleNames(fluidOnly bool) []string {
	var names []string
	for _, row := range scales {
		if row.fluidOnly == fluidOnly {
			names = append(names, row.name)
		}
	}
	return names
}

func (s ScaleLevel) String() string {
	if s < 0 || int(s) >= len(scales) {
		return "scale?"
	}
	return scales[s].name
}

// EngineKind selects the simulation fidelity tier experiments run on.
type EngineKind int

const (
	// EnginePacket is the discrete-event packet engine (default): per-packet
	// forwarding, DCTCP marking, retransmission — the reference fidelity.
	EnginePacket EngineKind = iota
	// EngineFluid is the flow-level engine (internal/fluid): flows are rate
	// allocations re-solved on arrival/finish/reroute events. Orders of
	// magnitude faster; congestion signals are modeled, not emergent. The
	// experiments whose points all have a fluid form are marked Fluid in
	// the Registry; the others keep the packet engine.
	EngineFluid
)

func (e EngineKind) String() string {
	switch e {
	case EnginePacket:
		return "packet"
	case EngineFluid:
		return "fluid"
	}
	return "engine?"
}

// EngineByName parses an -engine flag value.
func EngineByName(name string) (EngineKind, bool) {
	switch name {
	case "", "packet":
		return EnginePacket, true
	case "fluid":
		return EngineFluid, true
	}
	return EnginePacket, false
}

// Options configures an experiment run.
type Options struct {
	// Seed drives all randomness; identical Options give identical results.
	Seed int64
	// Scale selects fabric size and sample counts.
	Scale ScaleLevel
	// Engine selects the simulation fidelity tier (packet or fluid). The
	// zero value is the packet engine, so existing call sites and
	// checkpoint descriptors are unchanged.
	Engine EngineKind
	// FlowCount overrides the per-run number of workload flows (0 = the
	// scale's default).
	FlowCount int
	// JobCount overrides the number of partition-aggregate jobs.
	JobCount int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Repeats averages micro-benchmarks (Table 1) over this many seeds;
	// 0 picks a scale-appropriate default (3 below paper scale, 1 at it).
	Repeats int

	// Parallelism bounds how many independent simulation points run
	// concurrently. Each point is an isolated sim.Engine with its own
	// forked RNG, and outcomes are collected in submission order, so
	// results are byte-identical for every value of this field. 0 means
	// GOMAXPROCS; 1 is fully sequential.
	Parallelism int

	// Shards splits each fat-tree simulation point across this many
	// conservatively synchronized engine shards (bounded-lag windows, see
	// sim.ShardSet). 0 or 1 runs serial. Results are byte-identical at any
	// value: points that cannot shard safely run on one engine (shardPlan
	// lists every reason; the schemes table marks which schemes shard). Shards
	// composes with Parallelism: the shard workers borrow CPU tokens from
	// the same pool that admits sibling points, so `-parallel N -shards M`
	// never oversubscribes.
	Shards int

	// SolverShards bounds how many workers the fluid engine's incremental
	// rate solver may use for one commit's independent bottleneck
	// components (see fluid.Config.SolverShards). 0 or 1 solves serially.
	// Results are bit-identical at any value — the partition and the
	// merge order are deterministic — so, like Parallelism, it is not
	// part of a run's checkpoint identity. Only fluid-engine runs read it.
	SolverShards int

	// Seeds replicates each measured point over this many seeds (Seed,
	// Seed+1000, Seed+2000, ...) and reports mean ± stddev where the
	// experiment supports it (all-to-all, sensitivity, partition-
	// aggregate; Table 1 folds it into Repeats). 0 or 1 runs one seed.
	Seeds int

	// CDF overrides the flow-size distribution of the all-to-all and
	// production workloads (nil = the paper's web-search CDF, or the CDF
	// the production Workload names). Load with workload.ParseCDF to run
	// external distributions.
	CDF workload.CDF

	// FaultScenarios restricts the fault-matrix experiment to the named
	// scenarios (see FaultScenarioNames); empty runs the whole suite.
	FaultScenarios []string

	// Workload names the production-mix traffic shape: "websearch"
	// (heavy-tailed sizes, diurnal arrivals with a load spike) or
	// "datamining" (mice/elephant split, Poisson arrivals). Empty =
	// websearch. Only the production experiment reads it.
	Workload string

	// Load is the offered load as a fraction of bisection bandwidth. The
	// production experiment (0 = 0.5) and the fidelity matrix (0 = 0.4)
	// read it.
	Load float64

	// MixSchemes restricts the production experiment's scheme comparison
	// (nil = ECMP, FlowBender, RepFlow, DiffFlow — the schemes whose
	// designs target production flow-size mixes).
	MixSchemes []Scheme

	// Perf, when non-nil, accumulates simulator throughput (events
	// executed, virtual time advanced) across every simulation point the
	// experiment runs. Purely observational: it never alters scheduling,
	// so attaching it cannot change experiment output.
	Perf *PerfStats

	// Watchdog, when > 0, bounds each simulation point's wall-clock time:
	// a point exceeding it is reported as failed instead of hanging the
	// run. Off by default — whether a borderline point trips it depends on
	// machine speed, so leave it off when byte-identical output matters.
	Watchdog time.Duration

	// Ckpt, when non-nil, makes the run crash-safe: completed experiments
	// are journaled, and a resumed RunAll serves them from the file instead
	// of re-simulating; experiments still in flight rerun from the start.
	// nil (the default) changes nothing: every simulation path is
	// byte-identical with and without a manager attached.
	Ckpt *checkpoint.Manager

	// sharedPool, when non-nil, is used instead of a fresh pool so that
	// RunAll can bound concurrency across experiments with one limit.
	sharedPool *runpool.Pool

	// execPool is the pool whose slot the current simulation point is
	// running under; a sharded point borrows extra worker tokens from
	// it (see Pool.TryAcquire) so shard workers and sibling points share
	// one CPU budget, and every point draws its engine arena from it (see
	// arena). Set by runPoints, through which every experiment fans out.
	execPool *runpool.Pool

	// debugShardWindow (simdebug tripwire tests only) overrides the
	// computed bounded-lag window and forces single-worker execution so
	// the resulting lookahead violation panics on the caller's goroutine.
	debugShardWindow sim.Time

	// debugMaxWait (tests only) replaces the 10 s a run waits, in virtual
	// time, for in-flight flows to drain after arrivals stop.
	debugMaxWait sim.Time

	// debugPointLabel (tests only), when non-nil, receives the label of
	// every run runPoints simulates; it may be called concurrently.
	debugPointLabel func(label string)
}

func (o Options) params() topo.Params { return scales[o.Scale].params }

func (o Options) flowCount() int {
	if o.FlowCount > 0 {
		return o.FlowCount
	}
	return scales[o.Scale].flows
}

func (o Options) jobCount() int {
	if o.JobCount > 0 {
		return o.JobCount
	}
	return scales[o.Scale].jobs
}

// repeats is Table 1's replicate count: a micro-benchmark of a handful of
// flows is dominated by the luck of the hash draw, so below paper scale its
// mean and max are averaged over several seeds.
func (o Options) repeats() int {
	if o.Repeats > 0 {
		return o.Repeats
	}
	if o.Seeds > 1 {
		return o.Seeds
	}
	if o.Scale >= ScalePaper {
		return 1
	}
	return 3
}

// seeds is the replication count for experiments that support Options.Seeds.
func (o Options) seeds() int {
	if o.Seeds > 1 {
		return o.Seeds
	}
	return 1
}

// seedAt returns the seed of replicate rep (rep 0 = the base seed). The
// stride keeps replicate streams far apart and matches Table 1's historical
// Seed+1000r convention.
func (o Options) seedAt(rep int) int64 {
	return o.Seed + int64(rep)*1000
}

// pool returns the worker pool simulation points fan out on: the shared
// pool inside RunAll, otherwise a fresh one sized by Parallelism with the
// watchdog armed.
func (o Options) pool() *runpool.Pool {
	if o.sharedPool != nil {
		return o.sharedPool
	}
	p := runpool.New(o.Parallelism)
	p.SetWatchdog(o.Watchdog)
	return p
}

func (o Options) maxWait() sim.Time {
	if o.debugMaxWait > 0 {
		return o.debugMaxWait
	}
	return 10 * sim.Second
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		_, _ = fmt.Fprintln(o.Log, strings.TrimSuffix(fmt.Sprintf(format, args...), "\n"))
	}
}
