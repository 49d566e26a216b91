package topo

import (
	"fmt"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// LeafSpineParams describes the two-tier topology of the paper's testbed
// (§4.3): ToR switches each connected by one link to every spine
// (aggregation) switch, so any ToR pair has exactly Spines distinct paths.
type LeafSpineParams struct {
	Tors          int
	Spines        int
	ServersPerTor int

	LinkRateBps int64
	LinkDelay   sim.Time
	HostDelay   sim.Time
	SwitchDelay sim.Time

	QueueCap     int
	SharedBuffer int // switch-wide shared pool (testbed: 2 MB)
	MarkK        int
	PFC          *netsim.PFCConfig
}

// TestbedScale reproduces the paper's testbed: 15 ToRs with 12–16 servers
// each (we use a uniform 12), 4 spine switches, 10 Gbps links, CE threshold
// 90 KB, so each server has 4 distinct paths to servers on other ToRs.
func TestbedScale() LeafSpineParams {
	return LeafSpineParams{
		Tors:          15,
		Spines:        4,
		ServersPerTor: 12,
		LinkRateBps:   10 * Gbps,
		HostDelay:     20 * sim.Microsecond,
		SwitchDelay:   1 * sim.Microsecond,
		QueueCap:      1000 * KB,
		SharedBuffer:  2000 * KB, // per §4.3: 2 MB shared buffer space
		MarkK:         90 * KB,
	}
}

// SmallTestbed is a reduced leaf–spine for quick runs: 4 ToRs x 4 spines.
func SmallTestbed() LeafSpineParams {
	p := TestbedScale()
	p.Tors = 4
	p.ServersPerTor = 8
	return p
}

// NumHosts returns the total number of servers.
func (p LeafSpineParams) NumHosts() int { return p.Tors * p.ServersPerTor }

// LeafSpineShape is Shape for a leaf-spine: what LeafSpine.Reset cannot
// change.
type LeafSpineShape struct {
	Tors, Spines, ServersPerTor int
}

// Shape returns p's LeafSpineShape.
func (p LeafSpineParams) Shape() LeafSpineShape {
	return LeafSpineShape{p.Tors, p.Spines, p.ServersPerTor}
}

func (p LeafSpineParams) switchConfig() netsim.SwitchConfig {
	return netsim.SwitchConfig{
		QueueCap:     p.QueueCap,
		SharedBuffer: p.SharedBuffer,
		MarkK:        p.MarkK,
		FwdDelay:     p.SwitchDelay,
		PFC:          p.PFC,
	}
}

// LeafSpine is a built two-tier topology.
type LeafSpine struct {
	P   LeafSpineParams
	Eng *sim.Engine

	// Pool is the fabric-wide packet free list (see FatTree.Pool).
	Pool *netsim.PacketPool

	Hosts  []*netsim.Host
	Tors   []*netsim.Switch
	Spines []*netsim.Switch

	HostLinks []*netsim.Duplex
	// UpLinks[t][s] is the cable between ToR t and spine s.
	UpLinks [][]*netsim.Duplex

	// switches (ToRs, then spines) and links list every switch and cable once.
	switches []*netsim.Switch
	links    []*netsim.Duplex
}

// NewLeafSpine builds and wires the topology and installs routing tables —
// what p's Shape decides — and then, like NewFatTree, leaves the rest to
// Reset(p).
func NewLeafSpine(eng *sim.Engine, p LeafSpineParams) *LeafSpine {
	if p.Tors < 2 || p.Spines < 1 || p.ServersPerTor < 1 {
		panic(fmt.Sprintf("topo: invalid leaf-spine params %+v", p))
	}
	ls := &LeafSpine{P: p, Eng: eng}
	n := p.NumHosts()

	ls.Hosts = make([]*netsim.Host, n)
	for i := range ls.Hosts {
		ls.Hosts[i] = netsim.NewHost(eng, netsim.NodeID(i), p.LinkRateBps, p.HostDelay)
	}
	ls.switches = make([]*netsim.Switch, 0, p.Tors+p.Spines)
	newSwitch := func(ports int) *netsim.Switch {
		s := netsim.NewSwitch(eng, netsim.NodeID(n+len(ls.switches)), ports, p.LinkRateBps, p.switchConfig())
		ls.switches = append(ls.switches, s)
		return s
	}
	ls.Tors = make([]*netsim.Switch, p.Tors)
	for t := range ls.Tors {
		ls.Tors[t] = newSwitch(p.ServersPerTor + p.Spines)
	}
	ls.Spines = make([]*netsim.Switch, p.Spines)
	for s := range ls.Spines {
		ls.Spines[s] = newSwitch(p.Tors)
	}

	// Wiring. ToR ports: [0,S) servers, [S, S+Spines) up. Spine port t -> ToR t.
	ls.HostLinks = make([]*netsim.Duplex, n)
	ls.links = make([]*netsim.Duplex, 0, n+p.Tors*p.Spines)
	ls.UpLinks = make([][]*netsim.Duplex, p.Tors)
	for t := 0; t < p.Tors; t++ {
		for s := 0; s < p.ServersPerTor; s++ {
			h := t*p.ServersPerTor + s
			ls.HostLinks[h] = netsim.WireHost(ls.Hosts[h], ls.Tors[t], s, p.LinkDelay)
		}
		ls.UpLinks[t] = make([]*netsim.Duplex, p.Spines)
		for s := 0; s < p.Spines; s++ {
			ls.UpLinks[t][s] = netsim.WireSwitches(ls.Tors[t], p.ServersPerTor+s, ls.Spines[s], t, p.LinkDelay)
		}
		ls.links = append(ls.links, ls.HostLinks[t*p.ServersPerTor:(t+1)*p.ServersPerTor]...)
		ls.links = append(ls.links, ls.UpLinks[t]...)
	}

	// Routes.
	up := make([]int32, p.Spines)
	for s := range up {
		up[s] = int32(p.ServersPerTor + s)
	}
	for t, tor := range ls.Tors {
		routes := make([][]int32, n)
		for dst := 0; dst < n; dst++ {
			if dst/p.ServersPerTor == t {
				routes[dst] = []int32{int32(dst % p.ServersPerTor)}
			} else {
				routes[dst] = up
			}
		}
		tor.SetRoutes(routes)
	}
	for _, spine := range ls.Spines {
		routes := make([][]int32, n)
		for dst := 0; dst < n; dst++ {
			routes[dst] = []int32{int32(dst / p.ServersPerTor)}
		}
		spine.SetRoutes(routes)
	}

	ls.Pool = netsim.NewPacketPool()
	for _, h := range ls.Hosts {
		h.UsePool(ls.Pool)
	}
	for _, sw := range ls.switches {
		sw.UsePool(ls.Pool)
	}
	ls.Reset(p)
	return ls
}

// Reset is FatTree.Reset for a leaf-spine of p's Shape.
func (ls *LeafSpine) Reset(p LeafSpineParams) {
	if p.Shape() != ls.P.Shape() {
		panic(fmt.Sprintf("topo: leaf-spine of shape %+v reset to %+v", ls.P.Shape(), p.Shape()))
	}
	ls.P = p
	for _, h := range ls.Hosts {
		h.Reset(p.LinkRateBps, p.HostDelay)
	}
	cfg := p.switchConfig()
	for _, s := range ls.switches {
		s.Reset(p.LinkRateBps, cfg)
	}
	setDelay(ls.links, p.LinkDelay)
	ls.Pool.Reset()
}

// SetSelector installs the same multipath selector on every switch.
func (ls *LeafSpine) SetSelector(sel netsim.Selector) {
	for _, s := range ls.switches {
		s.SetSelector(sel)
	}
}

// TorHosts returns the host indices attached to ToR t.
func (ls *LeafSpine) TorHosts(t int) []int {
	out := make([]int, ls.P.ServersPerTor)
	for s := range out {
		out[s] = t*ls.P.ServersPerTor + s
	}
	return out
}
