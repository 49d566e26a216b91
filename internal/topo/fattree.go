package topo

import (
	"fmt"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// FatTree is a built fat-tree — three tiers, or the testbed's two when it is
// one pod without a core — with its hosts, switches, and cable handles.
type FatTree struct {
	P   Params
	Eng *sim.Engine

	// Pool is the fabric-wide packet free list every host and switch
	// recycles through; transports sending between this topology's hosts
	// allocate packets from it via Host.NewPacket.
	Pool *netsim.PacketPool

	Hosts []*netsim.Host
	// Tors[pod][t], Aggs[pod][a], Cores[c].
	Tors  [][]*netsim.Switch
	Aggs  [][]*netsim.Switch
	Cores []*netsim.Switch

	// HostLinks[h] is the server-to-ToR cable of host h.
	HostLinks []*netsim.Duplex
	// TorAggLinks[pod][t][a] is the (single, TorAggRateBps) cable between
	// ToR t and agg a in pod.
	TorAggLinks [][][]*netsim.Duplex
	// AggCoreLinks[pod][a][k] is agg a's k-th core uplink in pod.
	AggCoreLinks [][][]*netsim.Duplex

	// switches and links list every switch and cable once, in build order.
	switches []*netsim.Switch
	links    []*netsim.Duplex
}

// NewFatTree builds the topology, wires every cable, and installs up/down
// ECMP routing tables. Selectors must be installed afterwards with
// SetSelector.
//
// Port layout:
//
//	ToR:  [0, S) servers; [S, S+A) uplinks, port S + a -> agg a
//	Agg:  [0, T) downlinks, port t -> ToR t; [T, T+K) core uplinks
//	Core: [0, Pods) one port per pod
//
// Core c attaches to agg c/K via that agg's uplink c%K, in every pod.
// ToR-agg links run at TorAggRateBps; everything else at LinkRateBps.
//
// Building is allocating the devices, wiring and routing them — what p's
// Shape decides, done once — and then Reset(p), which owns everything else.
func NewFatTree(eng *sim.Engine, p Params) *FatTree {
	ft := newFatTree(p, engineMap{
		host: func(int) *sim.Engine { return eng },
		tor:  func(int, int) *sim.Engine { return eng },
		agg:  func(int, int) *sim.Engine { return eng },
		core: func(int) *sim.Engine { return eng },
	})
	ft.Eng = eng
	ft.Pool = netsim.NewPacketPool()
	for _, h := range ft.Hosts {
		h.UsePool(ft.Pool)
	}
	for _, s := range ft.switches {
		s.UsePool(ft.Pool)
	}
	ft.Reset(p)
	return ft
}

// Reset puts a fat-tree of p's Shape into the state NewFatTree(eng, p)
// returns, whatever ran on it before and however that ended: every host,
// switch and port reset (netsim's Host.Reset and Switch.Reset: queues and
// ledgers empty, links up and not gray, counters zero, no handler, no
// selector), rates, delays, queue bounds and PFC taken from p, the pool's
// counters zero. Devices, cables, routes and the pool's free packets stay.
// The engine must hold no event of the previous run (Engine.Reset).
func (ft *FatTree) Reset(p Params) {
	if p.Shape() != ft.P.Shape() {
		panic(fmt.Sprintf("topo: fat-tree of shape %+v reset to %+v", ft.P.Shape(), p.Shape()))
	}
	ft.P = p
	for _, h := range ft.Hosts {
		h.Reset(p.LinkRateBps, p.HostDelay)
	}
	cfg := p.switchConfig()
	for _, s := range ft.switches {
		s.Reset(p.LinkRateBps, cfg)
	}
	fat := p.TorAggRateBps()
	for pod := range ft.Tors {
		for _, tor := range ft.Tors[pod] {
			for a := 0; a < p.AggsPerPod; a++ {
				tor.Ports[p.ServersPerTor+a].RateBps = fat
			}
		}
		for _, agg := range ft.Aggs[pod] {
			for t := 0; t < p.TorsPerPod; t++ {
				agg.Ports[t].RateBps = fat
			}
		}
	}
	setDelay(ft.links, p.LinkDelay)
	ft.Pool.Reset()
}

// setDelay gives both directions of every cable the propagation delay d.
func setDelay(links []*netsim.Duplex, d sim.Time) {
	for _, l := range links {
		l.AtoB.Link.Delay = d
		l.BtoA.Link.Delay = d
	}
}

// engineMap assigns an engine (execution shard) to every device of a
// fat-tree under construction. Serial builds map everything to one engine;
// sharded builds map each device to its partition's engine.
type engineMap struct {
	host func(h int) *sim.Engine
	tor  func(pod, t int) *sim.Engine
	agg  func(pod, a int) *sim.Engine
	core func(c int) *sim.Engine
}

// newFatTree is the engine-agnostic first half of the serial and sharded
// constructors: devices, cables, routes. Construction schedules no events, so
// device creation order — and with it every NodeID — is identical regardless
// of the engine mapping. The caller installs the pools and calls Reset(p).
func newFatTree(p Params, em engineMap) *FatTree {
	validate(p)
	ft := &FatTree{P: p}
	n := p.NumHosts()

	// Hosts.
	ft.Hosts = make([]*netsim.Host, n)
	for i := range ft.Hosts {
		ft.Hosts[i] = netsim.NewHost(em.host(i), netsim.NodeID(i), p.LinkRateBps, p.HostDelay)
	}

	// Switches. Switch NodeIDs live above the host ID space.
	ft.switches = make([]*netsim.Switch, 0, p.Pods*(p.TorsPerPod+p.AggsPerPod)+p.NumCores())
	newSwitch := func(eng *sim.Engine, ports int) *netsim.Switch {
		s := netsim.NewSwitch(eng, netsim.NodeID(n+len(ft.switches)), ports, p.LinkRateBps, p.switchConfig())
		ft.switches = append(ft.switches, s)
		return s
	}
	for pod := 0; pod < p.Pods; pod++ {
		ft.Tors = append(ft.Tors, nil)
		ft.Aggs = append(ft.Aggs, nil)
		for t := 0; t < p.TorsPerPod; t++ {
			ft.Tors[pod] = append(ft.Tors[pod], newSwitch(em.tor(pod, t), p.ServersPerTor+p.AggsPerPod))
		}
		for a := 0; a < p.AggsPerPod; a++ {
			ft.Aggs[pod] = append(ft.Aggs[pod], newSwitch(em.agg(pod, a), p.TorsPerPod+p.CoreUplinksPerAgg))
		}
	}
	ft.Cores = make([]*netsim.Switch, p.NumCores())
	for c := range ft.Cores {
		ft.Cores[c] = newSwitch(em.core(c), p.Pods)
	}

	ft.wire()
	ft.installRoutes()
	return ft
}

// validate panics on Params no fat-tree is built for: see Params for the
// two shapes.
func validate(p Params) {
	if p.Pods < 1 || p.TorsPerPod < 1 || p.AggsPerPod < 1 || p.ServersPerTor < 1 ||
		p.CoreUplinksPerAgg < 0 || (p.Pods == 1) != (p.CoreUplinksPerAgg == 0) {
		panic(fmt.Sprintf("topo: invalid fat-tree params %+v", p))
	}
	if p.ServersPerTor%p.AggsPerPod != 0 {
		panic(fmt.Sprintf("topo: ServersPerTor (%d) must be a multiple of AggsPerPod (%d) for non-oversubscribed ToRs",
			p.ServersPerTor, p.AggsPerPod))
	}
}

func (ft *FatTree) wire() {
	p := ft.P
	ft.HostLinks = make([]*netsim.Duplex, len(ft.Hosts))
	ft.links = make([]*netsim.Duplex, 0, len(ft.Hosts)+p.Pods*p.AggsPerPod*(p.TorsPerPod+p.CoreUplinksPerAgg))
	ft.TorAggLinks = make([][][]*netsim.Duplex, p.Pods)
	ft.AggCoreLinks = make([][][]*netsim.Duplex, p.Pods)
	for pod := 0; pod < p.Pods; pod++ {
		ft.TorAggLinks[pod] = make([][]*netsim.Duplex, p.TorsPerPod)
		for t := 0; t < p.TorsPerPod; t++ {
			tor := ft.Tors[pod][t]
			ft.TorAggLinks[pod][t] = make([]*netsim.Duplex, p.AggsPerPod)
			for s := 0; s < p.ServersPerTor; s++ {
				h := ft.HostIndex(pod, t, s)
				ft.HostLinks[h] = netsim.WireHost(ft.Hosts[h], tor, s, p.LinkDelay)
				ft.links = append(ft.links, ft.HostLinks[h])
			}
			for a := 0; a < p.AggsPerPod; a++ {
				ft.TorAggLinks[pod][t][a] = netsim.WireSwitches(
					tor, p.ServersPerTor+a, ft.Aggs[pod][a], t, p.LinkDelay)
				ft.links = append(ft.links, ft.TorAggLinks[pod][t][a])
			}
		}
		ft.AggCoreLinks[pod] = make([][]*netsim.Duplex, p.AggsPerPod)
		for a := 0; a < p.AggsPerPod; a++ {
			agg := ft.Aggs[pod][a]
			ft.AggCoreLinks[pod][a] = make([]*netsim.Duplex, p.CoreUplinksPerAgg)
			for k := 0; k < p.CoreUplinksPerAgg; k++ {
				core := ft.Cores[a*p.CoreUplinksPerAgg+k]
				ft.AggCoreLinks[pod][a][k] = netsim.WireSwitches(
					agg, p.TorsPerPod+k, core, pod, p.LinkDelay)
				ft.links = append(ft.links, ft.AggCoreLinks[pod][a][k])
			}
		}
	}
}

func (ft *FatTree) installRoutes() {
	p := ft.P
	n := p.NumHosts()

	upTor := make([]int32, p.AggsPerPod)
	for a := range upTor {
		upTor[a] = int32(p.ServersPerTor + a)
	}
	upAgg := make([]int32, p.CoreUplinksPerAgg)
	for k := range upAgg {
		upAgg[k] = int32(p.TorsPerPod + k)
	}

	for pod := 0; pod < p.Pods; pod++ {
		for t, tor := range ft.Tors[pod] {
			routes := make([][]int32, n)
			for dst := 0; dst < n; dst++ {
				dp, dt, ds := ft.HostLoc(dst)
				if dp == pod && dt == t {
					routes[dst] = []int32{int32(ds)}
				} else {
					routes[dst] = upTor
				}
			}
			tor.SetRoutes(routes)
		}
		for _, agg := range ft.Aggs[pod] {
			routes := make([][]int32, n)
			for dst := 0; dst < n; dst++ {
				dp, dt, _ := ft.HostLoc(dst)
				if dp == pod {
					routes[dst] = []int32{int32(dt)}
				} else {
					routes[dst] = upAgg
				}
			}
			agg.SetRoutes(routes)
		}
	}
	for _, core := range ft.Cores {
		routes := make([][]int32, n)
		for dst := 0; dst < n; dst++ {
			dp, _, _ := ft.HostLoc(dst)
			routes[dst] = []int32{int32(dp)}
		}
		core.SetRoutes(routes)
	}
}

// SetSelector installs the same multipath selector on every switch.
func (ft *FatTree) SetSelector(sel netsim.Selector) {
	for _, s := range ft.switches {
		s.SetSelector(sel)
	}
}

// AllSwitches returns every switch in the fabric, pod by pod (ToRs, then
// aggs) and then the cores. The slice is the fabric's own: read it only.
func (ft *FatTree) AllSwitches() []*netsim.Switch { return ft.switches }

// HostIndex maps (pod, tor, server) to a host index.
func (ft *FatTree) HostIndex(pod, tor, server int) int {
	p := ft.P
	return (pod*p.TorsPerPod+tor)*p.ServersPerTor + server
}

// HostLoc maps a host index to (pod, tor, server).
func (ft *FatTree) HostLoc(h int) (pod, tor, server int) {
	p := ft.P
	server = h % p.ServersPerTor
	tor = (h / p.ServersPerTor) % p.TorsPerPod
	pod = h / (p.ServersPerTor * p.TorsPerPod)
	return
}
