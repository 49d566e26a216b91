package fluid

import (
	"math"

	"flowbender/internal/sim"
	"flowbender/internal/topo"
)

// Analytical is the closed-form M/G/1 twin of the fluid engine: mean flow
// completion time for uniform all-to-all traffic, from nothing but the
// topology shape, the offered load, and the flow-size distribution's first
// two moments. It brackets both simulation engines — far coarser than
// either, but with zero free parameters, so a fluid result that drifts
// outside its bounds signals a model bug rather than a fidelity gap.
//
// The model: each flow crosses the access stage and (when inter-pod) the
// core stage. The core stage is a single aggregated bottleneck at the
// fabric's bisection, loaded at the offered load rho; its queueing delay is
// the Pollaczek–Khinchine mean wait of an M/G/1 queue with the workload's
// service-size distribution. Ideal load balancing is assumed — hash
// collisions, rerouting transients, and slow start are exactly what the
// simulations add on top.
type Analytical struct {
	p topo.Params

	// MeanServiceSec is E[S]: mean flow wire time at access rate.
	MeanServiceSec float64
	// Rho is the offered core-stage load (fraction of bisection).
	Rho float64
	// MeanWaitSec is the P-K mean wait W at the core stage.
	MeanWaitSec float64
	// BaseRTT is the unloaded inter-pod round-trip.
	BaseRTT sim.Time
}

// NewAnalytical builds the twin for an all-to-all workload at the given
// load (fraction of bisection bandwidth), with flow sizes of the given mean
// and second moment (bytes and bytes²).
func NewAnalytical(p topo.Params, load, meanBytes, m2Bytes float64) *Analytical {
	a := &Analytical{p: p, Rho: load}
	rate := float64(p.LinkRateBps)
	// Wire inflation: one header per MSS of payload (MSS/header constants
	// are the transport defaults shared by both engines).
	const mss, hdr = 1460.0, 40.0
	infl := (mss + hdr) / mss
	a.MeanServiceSec = meanBytes * 8 * infl / rate
	// P-K: W = lambda * E[S^2] / (2 (1 - rho)), with lambda recovered from
	// rho = lambda * E[S].
	if load > 0 && load < 1 {
		es2 := m2Bytes * (8 * infl / rate) * (8 * infl / rate)
		lambda := load / a.MeanServiceSec
		a.MeanWaitSec = lambda * es2 / (2 * (1 - load))
	} else if load >= 1 {
		a.MeanWaitSec = math.Inf(1)
	}
	// Inter-pod path: 6 links, 5 switches.
	a.BaseRTT = 2*(2*p.HostDelay+5*p.SwitchDelay) +
		sim.Time(2*(mss+hdr+hdr)*8/rate*float64(sim.Second))
	return a
}

// MeanFCTLower returns the no-queueing lower bound on mean FCT: service at
// full access rate plus the one-way base latency.
func (a *Analytical) MeanFCTLower() sim.Time {
	return sim.Time(a.MeanServiceSec*float64(sim.Second)) + a.BaseRTT/2
}

// MeanFCT returns the M/G/1 estimate: lower bound plus the core-stage
// Pollaczek–Khinchine wait. +Inf at or above saturation.
func (a *Analytical) MeanFCT() sim.Time {
	if math.IsInf(a.MeanWaitSec, 1) {
		return sim.Time(math.MaxInt64)
	}
	return a.MeanFCTLower() + sim.Time(a.MeanWaitSec*float64(sim.Second))
}
