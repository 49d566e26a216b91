package topo

import "flowbender/internal/netsim"

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
