package topo

import (
	"fmt"
	"strings"
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
)

func TestAuditCleanFabric(t *testing.T) {
	eng := sim.NewEngine()
	p := SmallScale()
	ft := NewFatTree(eng, p)
	ft.SetSelector(routing.ECMP{})
	rep := ft.Audit(8)

	if rep.Unreachable != 0 {
		t.Fatalf("unreachable pairs: %d (%v)", rep.Unreachable, rep.Errors)
	}
	if rep.PairsChecked != p.NumHosts()*(p.NumHosts()-1) {
		t.Fatalf("pairs checked = %d", rep.PairsChecked)
	}
	// Inter-pod: host -> ToR -> agg -> core -> agg -> ToR -> host = 5 switch hops.
	if rep.MaxHops != 5 {
		t.Fatalf("max switch hops = %d, want 5", rep.MaxHops)
	}
	// Same-ToR pairs always take the single ToR path.
	if rep.IntraTorPaths != 1 {
		t.Fatalf("same-ToR paths = %d", rep.IntraTorPaths)
	}
	// With 8 tags over P=4 physical core paths, an inter-pod pair must see
	// several distinct paths (FlowBender's raw material).
	if rep.InterPodPaths < 2 || rep.TagDistinctMin < 2 {
		t.Fatalf("insufficient path diversity: %+v", rep)
	}
	if !strings.Contains(rep.Format(), "path diversity") {
		t.Fatal("Format missing content")
	}
}

func TestAuditDetectsFailure(t *testing.T) {
	eng := sim.NewEngine()
	p := TinyScale()
	ft := NewFatTree(eng, p)
	ft.SetSelector(routing.ECMP{})
	// Cut a host's access link: every pair involving it becomes unreachable.
	ft.HostLinks[3].AtoB.SetLinkDown(true)
	ft.HostLinks[3].BtoA.SetLinkDown(true)
	rep := ft.Audit(4)
	if rep.Unreachable == 0 {
		t.Fatal("audit missed the failed access link")
	}
	if len(rep.Errors) == 0 {
		t.Fatal("no error samples recorded")
	}
}

func TestPathsByTagChangeWithTag(t *testing.T) {
	eng := sim.NewEngine()
	p := SmallScale()
	ft := NewFatTree(eng, p)
	ft.SetSelector(routing.ECMP{})
	src := 0
	dst := ft.HostIndex(2, 1, 3)
	paths := ft.PathsByTag(src, dst, 8)
	if len(paths) != 8 {
		t.Fatalf("paths for %d tags, want 8", len(paths))
	}
	distinct := map[string]bool{}
	for tag, path := range paths {
		if path[0] != netsim.NodeID(src) || path[len(path)-1] != netsim.NodeID(dst) {
			t.Fatalf("tag %d: endpoints wrong: %v", tag, path)
		}
		distinct[fmt.Sprint(path)] = true
	}
	if len(distinct) < 2 {
		t.Fatal("tag change never changed the path")
	}
}
