package workload

import (
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
)

// FlowFactory starts one transport flow; experiments bind it to
// tcp.StartFlow with the scheme under test.
type FlowFactory func(id netsim.FlowID, src, dst *netsim.Host, size int64) *tcp.Flow

// IDAllocator hands out unique flow IDs for one simulation run.
type IDAllocator struct{ next netsim.FlowID }

// Next returns a fresh flow ID.
func (a *IDAllocator) Next() netsim.FlowID {
	a.next++
	return a.next
}

// AllToAll drives the paper's §4.2.2 workload: flows arrive as a Poisson
// process; each flow picks a uniform random source and a distinct uniform
// random destination, with sizes drawn from a heavy-tailed CDF. Load is
// expressed as the average fraction of each server's access-link rate
// divided by the fabric's oversubscription, matching the paper's
// "average network load relative to the bisection bandwidth".
type AllToAll struct {
	Eng   *sim.Engine
	RNG   *sim.RNG
	Hosts []*netsim.Host
	// NumHosts is the host count used by PredrawIdx when Hosts is nil —
	// the fluid engine plans workloads over bare host indices without
	// constructing netsim hosts at all. Ignored when Hosts is set.
	NumHosts int
	// SrcHosts, when non-empty, restricts senders to this subset (the
	// paper's testbed pattern has one ToR's servers initiate all flows);
	// destinations are still drawn from Hosts.
	SrcHosts []*netsim.Host
	CDF      CDF
	Start    FlowFactory
	IDs      *IDAllocator

	// MeanInterarrival between consecutive flow arrivals (aggregate).
	MeanInterarrival sim.Time
	// MaxFlows stops generating after this many flows (0 = until Stop).
	MaxFlows int

	Flows   []*tcp.Flow
	stopped bool
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

// Run begins the arrival process.
func (g *AllToAll) Run() { g.arrive() }

// Stop halts new arrivals; in-flight flows continue.
func (g *AllToAll) Stop() { g.stopped = true }

func (g *AllToAll) arrive() {
	if g.stopped || (g.MaxFlows > 0 && len(g.Flows) >= g.MaxFlows) {
		return
	}
	var src *netsim.Host
	if len(g.SrcHosts) > 0 {
		src = g.SrcHosts[g.RNG.Intn(len(g.SrcHosts))]
	} else {
		src = g.Hosts[g.RNG.Intn(len(g.Hosts))]
	}
	dst := src
	for dst == src {
		dst = g.Hosts[g.RNG.Intn(len(g.Hosts))]
	}
	size := g.CDF.Sample(g.RNG)
	f := g.Start(g.IDs.Next(), src, dst, size)
	g.Flows = append(g.Flows, f)
	g.Eng.Schedule(g.RNG.Exp(g.MeanInterarrival), g.arrive)
}

// Arrival is one pre-drawn all-to-all flow arrival: who sends what to whom,
// when. Flow IDs are positional — arrival i corresponds to the (i+1)-th
// ID the generator's allocator would hand out.
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

// Predraw consumes the generator's RNG exactly as n live arrivals would and
// returns them without starting any flows. It lets the sharded runner plan
// the entire workload up front — every start becomes a pre-scheduled event
// on the owning shard's engine — while drawing the identical random stream,
// so the resulting traffic is byte-identical to Run's. Call it instead of
// Run, never in addition (both consume the same stream); Eng, Start, and
// IDs may be nil.
func (g *AllToAll) Predraw(n int) []Arrival {
	if len(g.SrcHosts) == 0 {
		// Delegate to the index-based planner so the two predraw forms are
		// one RNG stream by construction, not by parallel maintenance.
		idx := g.PredrawIdx(n)
		out := make([]Arrival, len(idx))
		for i, a := range idx {
			out[i] = Arrival{At: a.At, Src: g.Hosts[a.Src], Dst: g.Hosts[a.Dst], Size: a.Size}
		}
		return out
	}
	out := make([]Arrival, 0, n)
	var t sim.Time
	for i := 0; i < n; i++ {
		src := g.SrcHosts[g.RNG.Intn(len(g.SrcHosts))]
		dst := src
		for dst == src {
			dst = g.Hosts[g.RNG.Intn(len(g.Hosts))]
		}
		size := g.CDF.Sample(g.RNG)
		out = append(out, Arrival{At: t, Src: src, Dst: dst, Size: size})
		t += g.RNG.Exp(g.MeanInterarrival)
	}
	return out
}

// PredrawIdx is Predraw over bare host indices: the identical RNG draws,
// with sources and destinations as positions in Hosts (or in [0, NumHosts)
// when Hosts is nil). It panics if SrcHosts is set — the restricted-sender
// pattern is pointer-based and has no index form.
func (g *AllToAll) PredrawIdx(n int) []ArrivalIdx {
	if len(g.SrcHosts) > 0 {
		panic("workload: PredrawIdx does not support SrcHosts")
	}
	nh := len(g.Hosts)
	if nh == 0 {
		nh = g.NumHosts
	}
	out := make([]ArrivalIdx, 0, n)
	var t sim.Time
	for i := 0; i < n; i++ {
		src := g.RNG.Intn(nh)
		dst := src
		for dst == src {
			dst = g.RNG.Intn(nh)
		}
		size := g.CDF.Sample(g.RNG)
		out = append(out, ArrivalIdx{At: t, Src: int32(src), Dst: int32(dst), Size: size})
		t += g.RNG.Exp(g.MeanInterarrival)
	}
	return out
}

// Job is one partition–aggregate transaction: n workers respond
// simultaneously to one aggregator; the job completes when the slowest
// response finishes.
type Job struct {
	Flows []*tcp.Flow
	Start sim.Time
}

// Done reports whether every response has completed.
func (j *Job) Done() bool {
	for _, f := range j.Flows {
		if !f.Done() {
			return false
		}
	}
	return true
}

// CompletionTime returns the time of the last flow to finish, minus the
// job's start (the paper's metric in Figure 5).
func (j *Job) CompletionTime() sim.Time {
	var last sim.Time
	for _, f := range j.Flows {
		if f.RecvDone > last {
			last = f.RecvDone
		}
	}
	return last - j.Start
}

// PartitionAggregate drives the paper's §4.2.4 incast workload: jobs arrive
// as a Poisson process; each JobBytes transaction is split evenly across
// FanIn workers spread randomly in the fabric, all responding at once to a
// random aggregator.
type PartitionAggregate struct {
	Eng   *sim.Engine
	RNG   *sim.RNG
	Hosts []*netsim.Host
	Start FlowFactory
	IDs   *IDAllocator

	JobBytes         int64
	FanIn            int
	MeanInterarrival sim.Time
	MaxJobs          int

	Jobs []*Job
}

// JobInterarrival computes the Poisson interarrival for partition-aggregate
// jobs at the given load (same load definition as AggregateInterarrival).
func JobInterarrival(load float64, bisectionBps int64, interPodFrac float64, jobBytes int64) sim.Time {
	totalBps := load * float64(bisectionBps) / interPodFrac
	jobsPerSec := totalBps / (float64(jobBytes) * 8)
	return sim.Time(float64(sim.Second) / jobsPerSec)
}

// Run begins the arrival process.
func (g *PartitionAggregate) Run() { g.arrive() }

func (g *PartitionAggregate) arrive() {
	if g.MaxJobs > 0 && len(g.Jobs) >= g.MaxJobs {
		return
	}
	agg := g.RNG.Intn(len(g.Hosts))
	per := g.JobBytes / int64(g.FanIn)
	if per < 1 {
		per = 1
	}
	job := &Job{Start: g.Eng.Now()}
	used := map[int]bool{agg: true}
	for w := 0; w < g.FanIn; w++ {
		// Workers are distinct from the aggregator and, while possible,
		// from each other (with more workers than hosts they repeat).
		src := g.RNG.IntnExcept(len(g.Hosts), agg)
		for used[src] && len(used) < len(g.Hosts) {
			src = g.RNG.IntnExcept(len(g.Hosts), agg)
		}
		used[src] = true
		f := g.Start(g.IDs.Next(), g.Hosts[src], g.Hosts[agg], per)
		job.Flows = append(job.Flows, f)
	}
	g.Jobs = append(g.Jobs, job)
	g.Eng.Schedule(g.RNG.Exp(g.MeanInterarrival), g.arrive)
}
