package topo

import (
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

func TestPaperScaleShape(t *testing.T) {
	p := PaperScale()
	if got := p.NumHosts(); got != 128 {
		t.Fatalf("hosts = %d, want 128", got)
	}
	if got := p.NumCores(); got != 8 {
		t.Fatalf("cores = %d, want 8", got)
	}
	if got := p.PathsBetweenPods(); got != 8 {
		t.Fatalf("paths = %d, want 8", got)
	}
	if got := p.Oversubscription(); got != 4 {
		t.Fatalf("oversub = %v, want 4", got)
	}
	// Non-oversubscribed ToRs: uplink capacity equals server capacity.
	if int64(p.AggsPerPod)*p.TorAggRateBps() != int64(p.ServersPerTor)*p.LinkRateBps {
		t.Fatalf("ToR oversubscribed: %d x %d up vs %d x %d down",
			p.AggsPerPod, p.TorAggRateBps(), p.ServersPerTor, p.LinkRateBps)
	}
}

func TestScalesKeepOversubscription(t *testing.T) {
	for name, p := range map[string]Params{"small": SmallScale(), "tiny": TinyScale()} {
		if got := p.Oversubscription(); got != 4 {
			t.Errorf("%s: oversub = %v, want 4", name, got)
		}
		if int64(p.AggsPerPod)*p.TorAggRateBps() != int64(p.ServersPerTor)*p.LinkRateBps {
			t.Errorf("%s: ToR oversubscribed", name)
		}
	}
}

func TestFatTreeWiring(t *testing.T) {
	eng := sim.NewEngine()
	p := TinyScale()
	ft := NewFatTree(eng, p)

	if len(ft.Hosts) != p.NumHosts() {
		t.Fatalf("hosts built = %d", len(ft.Hosts))
	}
	if len(ft.Cores) != p.NumCores() {
		t.Fatalf("cores built = %d", len(ft.Cores))
	}
	// Every cable handle must be populated and reciprocal.
	for h, d := range ft.HostLinks {
		if d == nil || d.AtoB.Link.To == nil || d.BtoA.Link.To == nil {
			t.Fatalf("host link %d incomplete", h)
		}
	}
	// HostIndex/HostLoc round-trip.
	for h := 0; h < p.NumHosts(); h++ {
		pod, tor, srv := ft.HostLoc(h)
		if ft.HostIndex(pod, tor, srv) != h {
			t.Fatalf("HostLoc/HostIndex mismatch at %d", h)
		}
	}
}

func TestFatTreeRoutesReachability(t *testing.T) {
	eng := sim.NewEngine()
	p := TinyScale()
	ft := NewFatTree(eng, p)
	n := p.NumHosts()
	for _, sw := range ft.AllSwitches() {
		routes := sw.Routes()
		if len(routes) != n {
			t.Fatalf("switch %d has %d route entries, want %d", sw.ID(), len(routes), n)
		}
		for dst, ports := range routes {
			if len(ports) == 0 {
				t.Fatalf("switch %d has no route to host %d", sw.ID(), dst)
			}
			for _, port := range ports {
				if int(port) >= len(sw.Ports) {
					t.Fatalf("switch %d route to %d uses invalid port %d", sw.ID(), dst, port)
				}
			}
		}
	}
}

func TestFatTreeDelivery(t *testing.T) {
	// Send one packet between every host pair through static port-0 ECMP and
	// check delivery (validates wiring + routing end to end).
	eng := sim.NewEngine()
	p := TinyScale()
	ft := NewFatTree(eng, p)
	ft.SetSelector(firstPort{})

	n := p.NumHosts()
	got := make(map[int]int)
	for i := 0; i < n; i++ {
		i := i
		ft.Hosts[i].Register(netsim.FlowID(1000+i), handlerFunc(func(pkt *netsim.Packet) { got[i]++ }))
	}
	sent := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			ft.Hosts[src].Send(&netsim.Packet{
				Flow: netsim.FlowID(1000 + dst),
				Src:  netsim.NodeID(src), Dst: netsim.NodeID(dst), Size: 100,
			})
			sent++
		}
	}
	eng.RunUntilIdle()
	total := 0
	for _, c := range got {
		total += c
	}
	if total != sent {
		t.Fatalf("delivered %d of %d", total, sent)
	}
}

func TestLeafSpineShape(t *testing.T) {
	p := TestbedScale()
	if p.Tors != 15 || p.Spines != 4 {
		t.Fatalf("testbed shape wrong: %+v", p)
	}
	eng := sim.NewEngine()
	ls := NewLeafSpine(eng, p)
	if len(ls.Hosts) != 15*12 {
		t.Fatalf("hosts = %d", len(ls.Hosts))
	}
	if h := ls.P.TorHosts(2); len(h) != 12 || h[0] != 24 {
		t.Fatalf("TorHosts(2) = %v", h)
	}
}

func TestLeafSpineDelivery(t *testing.T) {
	eng := sim.NewEngine()
	ls := NewLeafSpine(eng, SmallTestbed())
	ls.SetSelector(firstPort{})
	dst := len(ls.Hosts) - 1
	var got int
	ls.Hosts[dst].Register(5, handlerFunc(func(*netsim.Packet) { got++ }))
	ls.Hosts[0].Send(&netsim.Packet{Flow: 5, Src: 0, Dst: netsim.NodeID(dst), Size: 64})
	eng.RunUntilIdle()
	if got != 1 {
		t.Fatal("cross-ToR packet not delivered")
	}
}

func TestDuplexFailRestore(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, TinyScale())
	d := ft.AggCoreLinks[0][0][0]
	if d.Failed() {
		t.Fatal("new link reports failed")
	}
	d.Fail()
	if !d.Failed() || !d.AtoB.Link.Down || !d.BtoA.Link.Down {
		t.Fatal("Fail did not cut both directions")
	}
	d.Restore()
	if d.Failed() {
		t.Fatal("Restore did not bring the link back")
	}
}

type firstPort struct{}

func (firstPort) Select(_ *netsim.Switch, _ *netsim.Packet, eligible []int32) int32 {
	return eligible[0]
}

type handlerFunc func(*netsim.Packet)

func (f handlerFunc) Deliver(pkt *netsim.Packet) { f(pkt) }
