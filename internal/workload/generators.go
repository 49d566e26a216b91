package workload

import (
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// Schedule yields a workload's arrivals in time order, one batch per call and
// nil when exhausted. The flows of a batch share one instant and Replay
// starts them in one event. A batch may live in the schedule's own storage,
// valid until the next call. Pulling batch by batch keeps a million-flow
// point from ever holding its whole schedule.
type Schedule interface {
	NextBatch() []FlowSpec
}

// Replay files a schedule on eng: beacon k fires at batch k's instant and
// calls start(i, s) for each of the batch's flows, i counting flows from zero
// across the schedule. Each beacon pulls the next batch and arms its beacon,
// so the engine never holds more than one pending arrival however long the
// schedule is. It is the only code that files an arrival on an engine.
//
// The first batch starts synchronously, at time zero, and each beacon is
// armed after its batch has started — receiver, sender, next arrival is the
// event-insertion order same-instant tie-breaking keys on. armFirst is the
// fluid all-to-all order: every beacon, the first included, is an event,
// armed before its batch arrives so a same-instant burst still folds into
// one solver commit. Which order a caller uses is pinned by its goldens and
// executed-event counts, not a free choice.
func Replay(eng *sim.Engine, src Schedule, armFirst bool, start func(i int, s FlowSpec)) {
	batch := src.NextBatch()
	var cur []FlowSpec // the batch being started, copied out of src's storage
	i := 0
	var beacon func()
	arm := func() {
		if len(batch) > 0 {
			eng.At(batch[0].At, beacon)
		}
	}
	beacon = func() {
		cur = append(cur[:0], batch...)
		batch = src.NextBatch()
		if armFirst {
			arm()
		}
		for _, s := range cur {
			start(i, s)
			i++
		}
		if !armFirst {
			arm()
		}
	}
	if armFirst {
		arm()
	} else if len(batch) > 0 {
		beacon()
	}
}

// AllToAll is the paper's §4.2.2 workload as a Schedule: flows arrive as a
// Poisson process; each flow picks a uniform random source and a distinct
// uniform random destination, with sizes drawn from a heavy-tailed CDF, one
// flow per batch. Load is expressed as the average fraction of each server's
// access-link rate divided by the fabric's oversubscription, matching the
// paper's "average network load relative to the bisection bandwidth".
//
// Each arrival draws its source, its destination, its size and then the gap
// to the next arrival, in that order.
type AllToAll struct {
	RNG *sim.RNG
	// Hosts, when set, are what Predraw maps host indices onto, and the host
	// count is len(Hosts); otherwise it is NumHosts.
	Hosts    []*netsim.Host
	NumHosts int
	// Srcs and Dsts, when non-empty, restrict senders and receivers to these
	// host indices (the paper's testbed pattern has one ToR's servers
	// initiate all flows); an empty set means every host.
	Srcs, Dsts []int
	CDF        CDF

	// MeanInterarrival between consecutive flow arrivals (aggregate).
	MeanInterarrival sim.Time
	// MaxFlows is how many arrivals the schedule yields.
	MaxFlows int

	t       sim.Time
	emitted int
	one     [1]FlowSpec // the batch NextBatch returns
}

// AggregateInterarrival computes the aggregate Poisson interarrival time for
// a target load, where load is — as the paper reports it — the fraction of
// the fabric's bisection bandwidth consumed by the traffic that actually
// crosses the bisection. With uniform random destinations, interPodFrac of
// the offered bytes cross pods, so the total offered rate is
// load * bisectionBps / interPodFrac. At load 1.0 the aggregation-to-core
// stage is exactly saturated.
func AggregateInterarrival(load float64, bisectionBps int64, interPodFrac float64, meanFlowBytes float64) sim.Time {
	totalBps := load * float64(bisectionBps) / interPodFrac
	flowsPerSec := totalBps / (meanFlowBytes * 8)
	return sim.Time(float64(sim.Second) / flowsPerSec)
}

// NextBatch draws the next arrival, or returns nil after MaxFlows.
func (g *AllToAll) NextBatch() []FlowSpec {
	if g.emitted >= g.MaxFlows {
		return nil
	}
	g.emitted++
	src := g.pick(g.Srcs)
	dst := src
	for dst == src {
		dst = g.pick(g.Dsts)
	}
	size := g.CDF.Sample(g.RNG)
	g.one[0] = FlowSpec{At: g.t, SrcIdx: int32(src), DstIdx: int32(dst), Size: size}
	g.t += g.RNG.Exp(g.MeanInterarrival)
	return g.one[:]
}

// pick draws a host index uniformly from set, or from every host when set
// is empty.
func (g *AllToAll) pick(set []int) int {
	if len(set) == 0 {
		return g.RNG.Intn(hostCount(g.Hosts, g.NumHosts))
	}
	return set[g.RNG.Intn(len(set))]
}

// Arrival is one pre-drawn all-to-all flow arrival: who sends what to whom,
// when. Flow IDs are positional — arrival i runs under ID i+1.
type Arrival struct {
	At       sim.Time
	Src, Dst *netsim.Host
	Size     int64
}

// ArrivalIdx is one pre-drawn all-to-all flow arrival by host index — the
// fluid engine's planning unit, requiring no netsim hosts to exist.
type ArrivalIdx struct {
	At       sim.Time
	Src, Dst int32
	Size     int64
}

// Predraw is PredrawIdx with the endpoints mapped onto Hosts.
func (g *AllToAll) Predraw(n int) []Arrival {
	idx := g.PredrawIdx(n)
	out := make([]Arrival, len(idx))
	for i, a := range idx {
		out[i] = Arrival{At: a.At, Src: g.Hosts[a.Src], Dst: g.Hosts[a.Dst], Size: a.Size}
	}
	return out
}

// PredrawIdx bounds the schedule at n arrivals and drains it: the arrivals
// NextBatch would yield one at a time, all at once.
func (g *AllToAll) PredrawIdx(n int) []ArrivalIdx {
	g.MaxFlows = n
	out := make([]ArrivalIdx, 0, n)
	for b := g.NextBatch(); b != nil; b = g.NextBatch() {
		out = append(out, ArrivalIdx{At: b[0].At, Src: b[0].SrcIdx, Dst: b[0].DstIdx, Size: b[0].Size})
	}
	return out
}

// PartitionAggregate is the paper's §4.2.4 incast workload as a Schedule:
// jobs arrive as a Poisson process, one job per batch; each JobBytes
// transaction is split evenly across FanIn workers spread randomly in the
// fabric, all responding at once to a random aggregator. A job is done when
// its slowest response is (Figure 5's metric).
//
// Each job draws its aggregator, then its workers, then the gap to the next
// job.
type PartitionAggregate struct {
	RNG      *sim.RNG
	NumHosts int

	JobBytes         int64
	FanIn            int
	MeanInterarrival sim.Time
	// MaxJobs is how many jobs the schedule yields.
	MaxJobs int

	t    sim.Time
	jobs int
	job  []FlowSpec // the batch NextBatch returns
}

// JobInterarrival computes the Poisson interarrival for partition-aggregate
// jobs at the given load (same load definition as AggregateInterarrival).
func JobInterarrival(load float64, bisectionBps int64, interPodFrac float64, jobBytes int64) sim.Time {
	totalBps := load * float64(bisectionBps) / interPodFrac
	jobsPerSec := totalBps / (float64(jobBytes) * 8)
	return sim.Time(float64(sim.Second) / jobsPerSec)
}

// NextBatch draws the next job's FanIn responses, or returns nil after
// MaxJobs.
func (g *PartitionAggregate) NextBatch() []FlowSpec {
	if g.jobs >= g.MaxJobs {
		return nil
	}
	g.jobs++
	agg := g.RNG.Intn(g.NumHosts)
	per := max(g.JobBytes/int64(g.FanIn), 1)
	g.job = g.job[:0]
	distinct(g.RNG, g.NumHosts, agg, g.FanIn, func(src int) {
		g.job = append(g.job, FlowSpec{At: g.t, SrcIdx: int32(src), DstIdx: int32(agg), Size: per, Kind: KindIncast})
	})
	g.t += g.RNG.Exp(g.MeanInterarrival)
	return g.job
}

// distinct draws k host indices from [0, nh) other than except, distinct from
// each other while there are hosts enough (with more draws than hosts they
// repeat), and hands each to emit in draw order.
func distinct(rng *sim.RNG, nh, except, k int, emit func(int)) {
	used := map[int]bool{except: true}
	for ; k > 0; k-- {
		h := rng.IntnExcept(nh, except)
		for used[h] && len(used) < nh {
			h = rng.IntnExcept(nh, except)
		}
		used[h] = true
		emit(h)
	}
}

// hostCount is the endpoint-draw range: len(hosts), or n when hosts is nil.
func hostCount(hosts []*netsim.Host, n int) int {
	if len(hosts) > 0 {
		return len(hosts)
	}
	return n
}
