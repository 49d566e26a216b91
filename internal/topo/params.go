// Package topo builds the fat-tree fabrics the paper evaluates on: the
// three-tier fat-tree of §4.2 (pods of ToR + aggregation switches joined by a
// core layer, Figures 1/2) and, as the same type, the two-tier §4.3 testbed
// (15 ToRs interconnected by 4 aggregation switches), which is one pod with
// no core above it. It also computes the standard up/down ECMP routing tables
// and exposes handles for link-failure injection.
package topo

import (
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// Gbps converts gigabits per second to bits per second.
const Gbps = int64(1_000_000_000)

// KB is 1000 bytes, the unit the paper uses for queue thresholds.
const KB = 1000

// Params describes a fat-tree instance and its link/queue characteristics.
//
// Pods >= 2 with CoreUplinksPerAgg >= 1 is the three-tier fabric of §4.2.
// Pods == 1 with CoreUplinksPerAgg == 0 is a two-tier leaf-spine — the §4.3
// testbed (TestbedScale): every ToR reaches every other through any of the
// AggsPerPod aggregation ("spine") switches, each ToR-spine cable at
// LinkRateBps. No other combination builds.
type Params struct {
	Pods              int // number of pods
	TorsPerPod        int // ToR switches per pod
	AggsPerPod        int // aggregation switches per pod
	ServersPerTor     int // hosts per ToR
	CoreUplinksPerAgg int // core uplinks per aggregation switch

	// LinkRateBps is the line rate of server access links and
	// aggregation-core links. Each ToR connects to each aggregation switch
	// with ONE link (as in the paper's Figures 1/2) whose rate is scaled so
	// ToRs are non-oversubscribed (see TorAggRateBps) — the paper's Table 1
	// arithmetic (k equal flows on P = AggsPerPod*CoreUplinksPerAgg paths
	// finish in k/P * size/rate) requires the full 4x oversubscription to
	// sit at the aggregation-to-core stage. Without a core, ToR-agg links
	// run at LinkRateBps too.
	LinkRateBps int64
	LinkDelay   sim.Time // propagation delay per hop
	HostDelay   sim.Time // per-direction host processing delay
	SwitchDelay sim.Time // per-packet switch forwarding delay

	QueueCap     int               // per-egress-port drop-tail capacity (bytes)
	SharedBuffer int               // switch-wide shared pool (bytes; 0 = none)
	MarkK        int               // DCTCP ECN threshold (bytes)
	PFC          *netsim.PFCConfig // non-nil for DeTail's lossless fabric
}

// PaperScale returns the exact configuration of §4.2: 128 servers in four
// pods (4 ToR + 4 agg each), 8 core switches, 10 Gbps links, 20 µs host and
// 1 µs switch delay (90 µs inter-pod RTT), K = 90 KB.
func PaperScale() Params {
	return Params{
		Pods:              4,
		TorsPerPod:        4,
		AggsPerPod:        4,
		ServersPerTor:     8,
		CoreUplinksPerAgg: 2,
		LinkRateBps:       10 * Gbps,
		LinkDelay:         0,
		HostDelay:         20 * sim.Microsecond,
		SwitchDelay:       1 * sim.Microsecond,
		QueueCap:          1000 * KB,
		MarkK:             90 * KB,
	}
}

// SmallScale returns a reduced instance (64 servers, 4 inter-pod paths) that
// preserves the paper's structure — non-oversubscribed ToRs, 4x total
// oversubscription at the aggregation-core stage — so normalized results
// keep their shape while running quickly on one core.
func SmallScale() Params {
	p := PaperScale()
	p.AggsPerPod = 2
	p.ServersPerTor = 4
	return p
}

// HyperScale returns a 10,240-host fabric: 16 pods of 16 ToRs x 40 servers,
// with 8 aggregation switches per pod and 32 cores (32 inter-pod paths).
// This is the ROADMAP's "tens of thousands of hosts" shape — far beyond
// what per-packet simulation finishes in useful wall time, so only the
// fluid engine runs it. The 20x server-to-core oversubscription is
// deliberate: hyperscale fabrics oversubscribe far more aggressively than
// the paper's 4x testbed, and the fluid fidelity story is about structure
// (non-oversubscribed ToRs, contention at the agg-core stage), not the
// paper's exact ratio.
func HyperScale() Params {
	p := PaperScale()
	p.Pods = 16
	p.TorsPerPod = 16
	p.AggsPerPod = 8
	p.ServersPerTor = 40
	p.CoreUplinksPerAgg = 4
	return p
}

// MegaScale returns a 102,400-host fabric: 32 pods of 32 ToRs x 100
// servers, with 8 aggregation switches per pod and 32 cores. This is the
// ROADMAP's production-scale rung — the scale where RepFlow's replication
// economics and FlowBender's reroute dynamics actually diverge — and it is
// strictly fluid-only: at ~100k hosts the per-packet engine would need
// billions of events per second of simulated time. The oversubscription
// (100:1 server-to-core per pod) mirrors aggressive production fabrics;
// as with HyperScale the fidelity story is structural, not ratio-exact.
func MegaScale() Params {
	p := PaperScale()
	p.Pods = 32
	p.TorsPerPod = 32
	p.AggsPerPod = 8
	p.ServersPerTor = 100
	p.CoreUplinksPerAgg = 4
	return p
}

// TinyScale is for unit tests: 16 servers, 2 pods, 2 paths, 4x oversub.
func TinyScale() Params {
	p := PaperScale()
	p.Pods = 2
	p.TorsPerPod = 2
	p.AggsPerPod = 2
	p.ServersPerTor = 4
	p.CoreUplinksPerAgg = 1
	return p
}

// TestbedScale reproduces the paper's testbed (§4.3): 15 ToRs with 12–16
// servers each (we use a uniform 12) joined by 4 spine switches — one pod, no
// core — with 10 Gbps links, a 2 MB shared switch buffer and CE threshold
// 90 KB, so each server has 4 distinct paths to servers on other ToRs.
func TestbedScale() Params {
	return Params{
		Pods:          1,
		TorsPerPod:    15,
		AggsPerPod:    4,
		ServersPerTor: 12,
		LinkRateBps:   10 * Gbps,
		HostDelay:     20 * sim.Microsecond,
		SwitchDelay:   1 * sim.Microsecond,
		QueueCap:      1000 * KB,
		SharedBuffer:  2000 * KB,
		MarkK:         90 * KB,
	}
}

// SmallTestbed is a reduced testbed for quick runs: 4 ToRs x 4 spines.
func SmallTestbed() Params {
	p := TestbedScale()
	p.TorsPerPod = 4
	p.ServersPerTor = 8
	return p
}

// Shape is the part of Params that decides which devices, ports, cables and
// routes a fat-tree has. Two Params of one Shape differ only in what
// FatTree.Reset re-applies — rates, delays, queue bounds, shared buffer,
// PFC — so a built fabric serves both.
type Shape struct {
	Pods, TorsPerPod, AggsPerPod, ServersPerTor, CoreUplinksPerAgg int
}

// Shape returns p's Shape.
func (p Params) Shape() Shape {
	return Shape{p.Pods, p.TorsPerPod, p.AggsPerPod, p.ServersPerTor, p.CoreUplinksPerAgg}
}

// NumHosts returns the total number of servers.
func (p Params) NumHosts() int { return p.Pods * p.TorsPerPod * p.ServersPerTor }

// TorHosts returns the host indices attached to ToR tor of pod.
func (p Params) TorHosts(pod, tor int) []int {
	out := make([]int, p.ServersPerTor)
	for s := range out {
		out[s] = (pod*p.TorsPerPod+tor)*p.ServersPerTor + s
	}
	return out
}

// TorAggRateBps returns the rate of each ToR-to-aggregation link, scaled so
// the ToR is non-oversubscribed: ServersPerTor/AggsPerPod times the access
// rate (20 Gbps in the paper-scale instance). Without a core — the testbed —
// it is the access rate.
func (p Params) TorAggRateBps() int64 {
	if p.CoreUplinksPerAgg == 0 {
		return p.LinkRateBps
	}
	return p.LinkRateBps * int64(p.ServersPerTor) / int64(p.AggsPerPod)
}

// NumCores returns the number of core switches.
func (p Params) NumCores() int { return p.AggsPerPod * p.CoreUplinksPerAgg }

// PathsBetweenPods returns the number of distinct inter-pod paths (the
// paper's P).
func (p Params) PathsBetweenPods() int { return p.AggsPerPod * p.CoreUplinksPerAgg }

// BisectionBps returns the fabric's bisection bandwidth: half the total
// core-layer capacity (the paper reports workload load relative to this).
func (p Params) BisectionBps() int64 {
	return int64(p.NumCores()) * int64(p.Pods) * p.LinkRateBps / 2
}

// InterPodFraction returns the fraction of uniform random traffic that
// crosses the bisection.
func (p Params) InterPodFraction() float64 {
	return float64(p.Pods-1) / float64(p.Pods)
}

// Oversubscription returns the server-to-core oversubscription factor.
func (p Params) Oversubscription() float64 {
	serverBW := float64(p.TorsPerPod * p.ServersPerTor) // per pod, in links
	coreBW := float64(p.AggsPerPod * p.CoreUplinksPerAgg)
	return serverBW / coreBW
}

func (p Params) switchConfig() netsim.SwitchConfig {
	return netsim.SwitchConfig{
		QueueCap:     p.QueueCap,
		SharedBuffer: p.SharedBuffer,
		MarkK:        p.MarkK,
		FwdDelay:     p.SwitchDelay,
		PFC:          p.PFC,
	}
}
