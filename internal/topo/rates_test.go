package topo

import (
	"testing"

	"flowbender/internal/sim"
)

func TestTorAggRate(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Params
		want int64
	}{
		{"paper", PaperScale(), 20 * Gbps},
		{"small", SmallScale(), 20 * Gbps},
		{"testbed (no core)", SmallTestbed(), SmallTestbed().LinkRateBps},
	} {
		if got := c.p.TorAggRateBps(); got != c.want {
			t.Errorf("%s ToR-agg rate = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBisection(t *testing.T) {
	p := PaperScale()
	if got := p.BisectionBps(); got != 160*Gbps {
		t.Fatalf("paper bisection = %d, want 160G", got)
	}
	if got := p.InterPodFraction(); got != 0.75 {
		t.Fatalf("inter-pod fraction = %v", got)
	}
	tiny := TinyScale()
	if got := tiny.InterPodFraction(); got != 0.5 {
		t.Fatalf("tiny inter-pod fraction = %v", got)
	}
}

func TestFatTreePortRates(t *testing.T) {
	eng := sim.NewEngine()
	p := SmallScale()
	ft := NewFatTree(eng, p)
	fat := p.TorAggRateBps()

	tor := ft.Tors[0][0]
	for s := 0; s < p.ServersPerTor; s++ {
		if tor.Ports[s].RateBps != p.LinkRateBps {
			t.Fatalf("ToR server port %d at %d", s, tor.Ports[s].RateBps)
		}
	}
	for a := 0; a < p.AggsPerPod; a++ {
		if tor.Ports[p.ServersPerTor+a].RateBps != fat {
			t.Fatalf("ToR uplink %d not at fat rate", a)
		}
	}
	agg := ft.Aggs[0][0]
	for tt := 0; tt < p.TorsPerPod; tt++ {
		if agg.Ports[tt].RateBps != fat {
			t.Fatalf("agg downlink %d not at fat rate", tt)
		}
	}
	for k := 0; k < p.CoreUplinksPerAgg; k++ {
		if agg.Ports[p.TorsPerPod+k].RateBps != p.LinkRateBps {
			t.Fatalf("agg core uplink %d not at base rate", k)
		}
	}
	for _, core := range ft.Cores {
		for _, port := range core.Ports {
			if port.RateBps != p.LinkRateBps {
				t.Fatal("core port not at base rate")
			}
		}
	}
}

func TestCoreWiring(t *testing.T) {
	// Core c must attach to agg c/K of every pod, on that agg's uplink c%K.
	eng := sim.NewEngine()
	p := PaperScale()
	ft := NewFatTree(eng, p)
	for c, core := range ft.Cores {
		a := c / p.CoreUplinksPerAgg
		for pod := 0; pod < p.Pods; pod++ {
			if core.Ports[pod].Link.To != ft.Aggs[pod][a] {
				t.Fatalf("core %d pod %d attached to the wrong agg", c, pod)
			}
		}
	}
}

func TestValidatePanicsOnRaggedTor(t *testing.T) {
	p := PaperScale()
	p.ServersPerTor = 5 // not a multiple of AggsPerPod=4
	defer func() {
		if recover() == nil {
			t.Fatal("ragged ToR accepted")
		}
	}()
	NewFatTree(sim.NewEngine(), p)
}
