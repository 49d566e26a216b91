package topo

import (
	"fmt"

	"flowbender/internal/netsim"
)

// FailAgg cuts every cable of an aggregation switch (a whole-switch
// failure): its ToR downlinks and core uplinks in both directions. Routing
// tables stay stale, as with Duplex.Fail.
func (ft *FatTree) FailAgg(pod, agg int) {
	for t := 0; t < ft.P.TorsPerPod; t++ {
		ft.TorAggLinks[pod][t][agg].Fail()
	}
	for k := 0; k < ft.P.CoreUplinksPerAgg; k++ {
		ft.AggCoreLinks[pod][agg][k].Fail()
	}
}

// RestoreAgg brings a previously failed aggregation switch back.
func (ft *FatTree) RestoreAgg(pod, agg int) {
	for t := 0; t < ft.P.TorsPerPod; t++ {
		ft.TorAggLinks[pod][t][agg].Restore()
	}
	for k := 0; k < ft.P.CoreUplinksPerAgg; k++ {
		ft.AggCoreLinks[pod][agg][k].Restore()
	}
}

// checkCore validates a core switch index. The integer division below would
// otherwise map some out-of-range indices onto existing cables (or panic
// with an opaque bounds error), so reject them explicitly, matching the
// constructors' style.
func (ft *FatTree) checkCore(core int) {
	if core < 0 || core >= ft.P.NumCores() {
		panic(fmt.Sprintf("topo: core index %d out of range [0, %d)", core, ft.P.NumCores()))
	}
}

// FailCore cuts every cable of a core switch (its one link per pod).
func (ft *FatTree) FailCore(core int) {
	ft.checkCore(core)
	a := core / ft.P.CoreUplinksPerAgg
	k := core % ft.P.CoreUplinksPerAgg
	for pod := 0; pod < ft.P.Pods; pod++ {
		ft.AggCoreLinks[pod][a][k].Fail()
	}
}

// RestoreCore brings a previously failed core switch back.
func (ft *FatTree) RestoreCore(core int) {
	ft.checkCore(core)
	a := core / ft.P.CoreUplinksPerAgg
	k := core % ft.P.CoreUplinksPerAgg
	for pod := 0; pod < ft.P.Pods; pod++ {
		ft.AggCoreLinks[pod][a][k].Restore()
	}
}

// FailSpine cuts every cable of a leaf-spine spine switch.
func (ls *LeafSpine) FailSpine(spine int) {
	for t := 0; t < ls.P.Tors; t++ {
		ls.UpLinks[t][spine].Fail()
	}
}

// RestoreSpine brings a previously failed spine switch back.
func (ls *LeafSpine) RestoreSpine(spine int) {
	for t := 0; t < ls.P.Tors; t++ {
		ls.UpLinks[t][spine].Restore()
	}
}

// DownLinks reports how many cables of the leaf-spine are currently fully
// failed (both directions; half-open cables do not count).
func (ls *LeafSpine) DownLinks() int { return downLinks(ls.links) }

// DownLinks reports how many cables of the fat-tree are currently failed
// (for assertions and tooling).
func (ft *FatTree) DownLinks() int { return downLinks(ft.links) }

func downLinks(links []*netsim.Duplex) int {
	count := 0
	for _, d := range links {
		if d.Failed() {
			count++
		}
	}
	return count
}
