package topo

// DownLinks reports how many cables of the fat-tree are currently fully
// failed (both directions; half-open cables do not count).
func (ft *FatTree) DownLinks() int {
	count := 0
	for _, d := range ft.links {
		if d.AtoB.Link.Down && d.BtoA.Link.Down {
			count++
		}
	}
	return count
}
