package fluid

import (
	"fmt"
	"slices"

	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
)

// maxPathLinks is the longest path in a three-tier fat-tree: host uplink,
// ToR uplink, agg uplink, core downlink, agg downlink, host downlink.
const maxPathLinks = 6

// pathRef is one directed path through the fabric, as the ordered list of
// link IDs it traverses.
type pathRef struct {
	links [maxPathLinks]int32
	n     int8
}

// Net is the fluid engine's view of a fat-tree: every directed link's
// capacity, addressed by a dense link ID, plus the arithmetic to reproduce
// the packet engine's ECMP path draws without building switches.
//
// Link ID layout (H hosts, P pods, T ToRs/pod, A aggs/pod, K core
// uplinks/agg):
//
//	hostUp[h]   = h                     host NIC egress (unbounded, unmarked)
//	hostDown[h] = H + h                 ToR egress port toward host h
//	torUp[t,a]  = 2H + (pod*T+t)*A + a  ToR t's uplink to agg a
//	aggDown     = torUp base + P*T*A    agg a's downlink to ToR t (same index)
//	aggUp[a,k]  = aggDown base + P*T*A indexed (pod*A+a)*K + k
//	coreDown    = aggUp base + P*A*K    core's downlink to (pod, a, k)
//
// Every link except a host's own NIC egress is a switch egress port: it has
// the DCTCP marking threshold and contributes to FlowBender's congestion
// signal. The host NIC queue is unbounded and never marks (see netsim.Host),
// so hostUp links are excluded from the marking estimate.
type Net struct {
	p topo.Params

	hosts   int
	nLinks  int
	caps    []float64 // bits/sec per link
	marking []bool    // link is a marking (switch-egress) queue

	// Per-switch ECMP hash salts, derived from the same node IDs the live
	// fat-tree assigns (hosts first, then per-pod ToRs and aggs, then cores),
	// so PathKeyHash draws land on the identical ports.
	torSalt []uint64 // indexed pod*T + t
	aggSalt []uint64 // indexed pod*A + a
}

// NewNet builds the fluid link model for one fat-tree parameterization.
func NewNet(p topo.Params) *Net {
	if p.Pods < 2 || p.TorsPerPod < 1 || p.AggsPerPod < 1 || p.ServersPerTor < 1 || p.CoreUplinksPerAgg < 1 {
		panic(fmt.Sprintf("fluid: degenerate topology %+v", p))
	}
	h := p.NumHosts()
	pods, t, a, k := p.Pods, p.TorsPerPod, p.AggsPerPod, p.CoreUplinksPerAgg
	n := &Net{p: p, hosts: h}
	n.nLinks = 2*h + 2*pods*t*a + 2*pods*a*k
	n.caps = make([]float64, n.nLinks)
	n.marking = make([]bool, n.nLinks)

	access := float64(p.LinkRateBps)
	torAgg := float64(p.TorAggRateBps())
	for i := 0; i < h; i++ {
		n.caps[i] = access   // hostUp: NIC egress, never marks
		n.caps[h+i] = access // hostDown: ToR egress port
		n.marking[h+i] = true
	}
	base := 2 * h
	for i := 0; i < pods*t*a; i++ {
		n.caps[base+i] = torAgg // torUp
		n.marking[base+i] = true
		n.caps[base+pods*t*a+i] = torAgg // aggDown
		n.marking[base+pods*t*a+i] = true
	}
	base += 2 * pods * t * a
	for i := 0; i < pods*a*k; i++ {
		n.caps[base+i] = access // aggUp
		n.marking[base+i] = true
		n.caps[base+pods*a*k+i] = access // coreDown
		n.marking[base+pods*a*k+i] = true
	}

	// Node IDs replicate topo.NewFatTree's assignment: hosts 0..H-1, then
	// per pod T ToRs followed by A aggs, then the cores.
	n.torSalt = make([]uint64, pods*t)
	n.aggSalt = make([]uint64, pods*a)
	for pod := 0; pod < pods; pod++ {
		for ti := 0; ti < t; ti++ {
			id := netsim.NodeID(h + pod*(t+a) + ti)
			n.torSalt[pod*t+ti] = routing.NodeSalt(id)
		}
		for ai := 0; ai < a; ai++ {
			id := netsim.NodeID(h + pod*(t+a) + t + ai)
			n.aggSalt[pod*a+ai] = routing.NodeSalt(id)
		}
	}
	return n
}

func (n *Net) hostUp(h int32) int32   { return h }
func (n *Net) hostDown(h int32) int32 { return int32(n.hosts) + h }
func (n *Net) torUp(tor, a int32) int32 {
	return int32(2*n.hosts) + tor*int32(n.p.AggsPerPod) + a
}
func (n *Net) aggDown(tor, a int32) int32 {
	return n.torUp(tor, a) + int32(n.p.Pods*n.p.TorsPerPod*n.p.AggsPerPod)
}
func (n *Net) aggUp(pod, a, k int32) int32 {
	return int32(2*n.hosts+2*n.p.Pods*n.p.TorsPerPod*n.p.AggsPerPod) +
		(pod*int32(n.p.AggsPerPod)+a)*int32(n.p.CoreUplinksPerAgg) + k
}
func (n *Net) coreDown(pod, a, k int32) int32 {
	return n.aggUp(pod, a, k) + int32(n.p.Pods*n.p.AggsPerPod*n.p.CoreUplinksPerAgg)
}

// loc decomposes a host index into (pod, tor index within the fabric).
func (n *Net) loc(h int32) (pod, tor int32) {
	tor = h / int32(n.p.ServersPerTor)
	pod = tor / int32(n.p.TorsPerPod)
	return pod, tor
}

// buildPath assembles the directed path for an inter-ToR flow given the
// up-path draws (agg index a; core uplink k, ignored intra-pod).
func (n *Net) buildPath(dst *pathRef, src, dsth, a, k int32) {
	sPod, sTor := n.loc(src)
	dPod, dTor := n.loc(dsth)
	dst.n = 0
	add := func(l int32) { dst.links[dst.n] = l; dst.n++ }
	add(n.hostUp(src))
	if sTor == dTor {
		add(n.hostDown(dsth))
		return
	}
	add(n.torUp(sTor, a))
	if sPod != dPod {
		add(n.aggUp(sPod, a, k))
		add(n.coreDown(dPod, a, k))
	}
	add(n.aggDown(dTor, a))
	add(n.hostDown(dsth))
}

// singlePath computes the ECMP path a flow with the given hash prefix and
// path tag takes from src to dst — the identical draw the packet engine's
// routing.ECMP selector makes at each switch, because the hash, the salts,
// and the eligible-port ordering (uplinks in agg order at the ToR, core
// uplinks in k order at the agg) are replicated exactly.
func (n *Net) singlePath(dst *pathRef, prefix uint64, tag uint32, src, dsth int32) {
	sPod, sTor := n.loc(src)
	dPod, dTor := n.loc(dsth)
	if sTor == dTor {
		n.buildPath(dst, src, dsth, 0, 0)
		return
	}
	a := int32(routing.PathKeyHash(prefix, tag, n.torSalt[sTor]) % uint64(n.p.AggsPerPod))
	var k int32
	if sPod != dPod {
		k = int32(routing.PathKeyHash(prefix, tag, n.aggSalt[sPod*int32(n.p.AggsPerPod)+a]) % uint64(n.p.CoreUplinksPerAgg))
	}
	n.buildPath(dst, src, dsth, a, k)
}

// sprayPaths appends every distinct path from src to dst (one per (agg,
// core-uplink) pair inter-pod, one per agg intra-pod, one for same-ToR
// flows) — the fluid model of per-packet spraying, which spreads a flow's
// load evenly over all of them.
func (n *Net) sprayPaths(dst []pathRef, src, dsth int32) []pathRef {
	// Room for the most paths any pair has, in one allocation when short.
	dst = slices.Grow(dst, n.p.AggsPerPod*n.p.CoreUplinksPerAgg)
	sPod, sTor := n.loc(src)
	dPod, dTor := n.loc(dsth)
	switch {
	case sTor == dTor:
		var pr pathRef
		n.buildPath(&pr, src, dsth, 0, 0)
		dst = append(dst, pr)
	case sPod == dPod:
		for a := int32(0); a < int32(n.p.AggsPerPod); a++ {
			var pr pathRef
			n.buildPath(&pr, src, dsth, a, 0)
			dst = append(dst, pr)
		}
	default:
		for a := int32(0); a < int32(n.p.AggsPerPod); a++ {
			for k := int32(0); k < int32(n.p.CoreUplinksPerAgg); k++ {
				var pr pathRef
				n.buildPath(&pr, src, dsth, a, k)
				dst = append(dst, pr)
			}
		}
	}
	return dst
}

// switches returns the number of switches a path of nl links crosses (every
// link lands on a switch except the last, which lands on the host).
func switches(nl int8) int { return int(nl) - 1 }

// owBase returns the constant part of a path's one-way latency: the two
// host processing delays plus per-switch forwarding delay. Serialization
// and queueing terms are added per-packet by the caller.
func (n *Net) owBase(nl int8) sim.Time {
	return 2*n.p.HostDelay + sim.Time(switches(nl))*n.p.SwitchDelay
}
