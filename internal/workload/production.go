package workload

import (
	"fmt"
	"math"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// DataMiningCDF is a flow-size distribution in the style of the
// data-mining workload measured by VL2 and reused by pFabric/RepFlow/
// DiffFlow: the vast majority of flows are mice under 10 KB, while nearly
// all bytes ride in multi-megabyte elephants. The tail is truncated at
// 100 MB (the published distributions reach 1 GB) to keep simulated byte
// volume proportional to what a discrete-event run can execute; the
// mice/elephant byte split the schemes react to is preserved.
func DataMiningCDF() CDF {
	return CDF{
		{100, 0},
		{180, 0.10},
		{250, 0.20},
		{560, 0.30},
		{900, 0.40},
		{1_100, 0.50},
		{1_870, 0.60},
		{3_160, 0.70},
		{10_000, 0.80},
		{100_000, 0.85},
		{1_000_000, 0.90},
		{10_000_000, 0.96},
		{100_000_000, 1.0},
	}
}

// NamedCDF returns a built-in flow-size distribution by workload name.
// The same distributions are checked in as testdata/*.cdf in ParseCDF
// format (a round-trip test pins file and builtin to each other), so
// external tools can consume identical bytes.
func NamedCDF(name string) (CDF, error) {
	switch name {
	case "websearch":
		return WebSearchCDF(), nil
	case "datamining":
		return DataMiningCDF(), nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q (want websearch or datamining)", name)
}

// WorkloadNames lists the NamedCDF workloads in presentation order.
func WorkloadNames() []string { return []string{"websearch", "datamining"} }

// ArrivalProcess generates the gaps between batch arrivals of an open-loop
// workload. Implementations must draw from rng in a fixed order that
// depends only on (call sequence, now) — the determinism contract that
// lets the sharded runner pre-draw the identical schedule.
type ArrivalProcess interface {
	// Next returns the gap from the arrival at now to the following one.
	Next(rng *sim.RNG, now sim.Time) sim.Time
}

// Poisson is the memoryless open-loop arrival process: exponential gaps
// with the given mean, matching the paper's §4.2.2 arrivals.
type Poisson struct {
	Mean sim.Time
}

// Next draws one exponential gap.
func (p Poisson) Next(rng *sim.RNG, _ sim.Time) sim.Time { return rng.Exp(p.Mean) }

// Spike is one load spike of a Diurnal process: between At and
// At+Duration the arrival rate is multiplied by Factor.
type Spike struct {
	At       sim.Time
	Duration sim.Time
	Factor   float64
}

// Diurnal is a rate-modulated renewal process approximating diurnal
// traffic: exponential gaps scaled down where the instantaneous rate is
// high. The rate at time t is
//
//	rate(t) = 1 + Amplitude·sin(2πt/Period)
//
// times the product of the factors of any active Spikes, and each gap is
// Exp(Mean)/rate(t). Rates are clamped below at minDiurnalRate so a deep
// trough cannot stall the process.
type Diurnal struct {
	Mean      sim.Time
	Amplitude float64 // in [0, 1); 0 degenerates to Poisson
	Period    sim.Time
	Spikes    []Spike
}

// minDiurnalRate floors the modulation so gaps stay finite and bounded.
const minDiurnalRate = 0.1

// Rate returns the instantaneous rate multiplier at t (≥ minDiurnalRate).
func (d Diurnal) Rate(t sim.Time) float64 {
	r := 1.0
	if d.Amplitude != 0 && d.Period > 0 {
		r += d.Amplitude * math.Sin(2*math.Pi*float64(t)/float64(d.Period))
	}
	for _, s := range d.Spikes {
		if t >= s.At && t < s.At+s.Duration && s.Factor > 0 {
			r *= s.Factor
		}
	}
	if r < minDiurnalRate {
		r = minDiurnalRate
	}
	return r
}

// Next draws one gap: a single exponential draw scaled by the current
// rate. One draw per arrival keeps the RNG stream consumption identical
// between live generation and pre-draw.
func (d Diurnal) Next(rng *sim.RNG, now sim.Time) sim.Time {
	gap := float64(rng.Exp(d.Mean)) / d.Rate(now)
	if gap < 1 {
		gap = 1 // at least one tick, so arrivals can't pile up at one instant
	}
	return sim.Time(gap)
}

// PatternKind labels what a production-mix batch models.
type PatternKind uint8

const (
	// KindPlain is a single point-to-point flow.
	KindPlain PatternKind = iota
	// KindIncast is a partition-aggregate response: FanIn flows from
	// distinct workers converging on one aggregator at the same instant.
	KindIncast
	// KindStorage is a replicated storage write: the same payload sent
	// from one writer to Replicas distinct servers at the same instant.
	KindStorage
	numPatternKinds
)

// FlowSpec is one arrival of a Schedule: who sends how much to whom, when,
// and as part of what pattern. Flow IDs are positional — the i-th spec a
// schedule yields is flow ID i+1.
type FlowSpec struct {
	At       sim.Time
	Src, Dst *netsim.Host
	// SrcIdx, DstIdx are the endpoints as positions in the host list — the
	// form every engine consumes. Always populated; Src/Dst are set only by
	// a Mix configured with Hosts.
	SrcIdx, DstIdx int32
	Size           int64
	Kind           PatternKind
}

// Mix generates a production-shaped open-loop workload: batches arrive per
// an ArrivalProcess; each batch is a plain flow, an incast job, or a
// replicated storage write, chosen by fraction; flow sizes come from an
// empirical CDF.
//
// Determinism contract: every batch consumes RNG draws in a pinned order —
// pattern selector, then the pattern's own draws (sizes before endpoints),
// then the gap to the next batch. The whole schedule is therefore a pure
// function of (seed, configuration), independent of whether batches are
// consumed one at a time during a live run or pre-drawn up front for the
// sharded runner; MaxFlows truncation drops trailing flows of the final
// batch after its draws are consumed, so the cut cannot shift the stream.
type Mix struct {
	RNG   *sim.RNG
	Hosts []*netsim.Host
	// NumHosts is the host count used when Hosts is nil (index-only
	// generation for the fluid engine). Ignored when Hosts is set.
	NumHosts int
	CDF      CDF
	// Arrivals generates batch gaps; the first batch arrives at time 0.
	Arrivals ArrivalProcess

	// IncastFrac and StorageFrac select pattern kinds per batch; the
	// remainder is plain flows. Both default to 0.
	IncastFrac  float64
	StorageFrac float64
	// FanIn is the incast width (default 8); one CDF draw is the job size,
	// split evenly across workers.
	FanIn int
	// Replicas is the storage replication factor (default 3); each replica
	// receives the full CDF-drawn payload.
	Replicas int

	// MaxFlows stops generation once this many flows have been emitted
	// (mid-batch truncation included). Required: a Mix is open-loop and
	// would otherwise never stop.
	MaxFlows int

	t       sim.Time
	emitted int
	started bool
	batch   []FlowSpec // the batch NextBatch returns
}

// host returns the i-th host pointer, or nil in index-only mode.
func (m *Mix) host(i int) *netsim.Host {
	if len(m.Hosts) > 0 {
		return m.Hosts[i]
	}
	return nil
}

func (m *Mix) fanIn() int {
	if m.FanIn <= 0 {
		return 8
	}
	return m.FanIn
}

func (m *Mix) replicas() int {
	if m.Replicas <= 0 {
		return 3
	}
	return m.Replicas
}

// MeanBatchBytes returns the expected payload bytes per batch: storage
// writes carry Replicas copies; plain flows and incast jobs carry one
// CDF-mean payload each.
func (m *Mix) MeanBatchBytes() float64 {
	return m.CDF.Mean() * (1 + m.StorageFrac*float64(m.replicas()-1))
}

// Done reports whether generation has reached MaxFlows.
func (m *Mix) Done() bool { return m.emitted >= m.MaxFlows }

// NextBatch returns the next batch of flow specs (all sharing one arrival
// instant), or nil when MaxFlows is reached. The batch lives in the Mix's
// own storage and is valid until the next call.
func (m *Mix) NextBatch() []FlowSpec {
	if m.Done() {
		return nil
	}
	if m.started {
		m.t += m.Arrivals.Next(m.RNG, m.t)
	}
	m.started = true

	kind := KindPlain
	u := m.RNG.Float64()
	switch {
	case u < m.IncastFrac:
		kind = KindIncast
	case u < m.IncastFrac+m.StorageFrac:
		kind = KindStorage
	}

	// All endpoint draws are by index so the stream is identical whether
	// the Mix carries netsim hosts (packet engine) or bare counts (fluid).
	nh := hostCount(m.Hosts, m.NumHosts)
	batch := m.batch[:0]
	switch kind {
	case KindPlain:
		size := m.CDF.Sample(m.RNG)
		src := m.RNG.Intn(nh)
		dst := src
		for dst == src {
			dst = m.RNG.Intn(nh)
		}
		batch = append(batch, FlowSpec{At: m.t, Src: m.host(src), Dst: m.host(dst),
			SrcIdx: int32(src), DstIdx: int32(dst), Size: size, Kind: kind})
	case KindIncast:
		job := m.CDF.Sample(m.RNG)
		fan := m.fanIn()
		per := job / int64(fan)
		if per < 1 {
			per = 1
		}
		agg := m.RNG.Intn(nh)
		distinct(m.RNG, nh, agg, fan, func(src int) {
			batch = append(batch, FlowSpec{
				At: m.t, Src: m.host(src), Dst: m.host(agg),
				SrcIdx: int32(src), DstIdx: int32(agg), Size: per, Kind: kind})
		})
	case KindStorage:
		size := m.CDF.Sample(m.RNG)
		wr := m.RNG.Intn(nh)
		distinct(m.RNG, nh, wr, m.replicas(), func(dst int) {
			batch = append(batch, FlowSpec{
				At: m.t, Src: m.host(wr), Dst: m.host(dst),
				SrcIdx: int32(wr), DstIdx: int32(dst), Size: size, Kind: kind})
		})
	}

	m.batch = batch

	// Truncate at exactly MaxFlows — after the batch's draws, so the RNG
	// stream position does not depend on where the cut lands.
	if remain := m.MaxFlows - m.emitted; len(batch) > remain {
		batch = batch[:remain]
	}
	m.emitted += len(batch)
	return batch
}
