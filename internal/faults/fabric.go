package faults

import (
	"fmt"
	"strconv"
	"strings"

	"flowbender/internal/netsim"
	"flowbender/internal/topo"
)

// cable resolves a cable name (see Apply) against a built fat-tree. Plans
// are declarative; each simulation point builds its own fabric and resolves
// the same names against it, which is what keeps a scenario replayable
// across points and seeds.
func cable(ft *topo.FatTree, name string) (*netsim.Duplex, error) {
	kind, rest, ok := strings.Cut(name, ":")
	if !ok {
		return nil, fmt.Errorf("faults: name %q is not of the form kind:indices", name)
	}
	p := ft.P
	type dim struct {
		name string
		n    int
	}
	var dims []dim
	switch kind {
	case "host":
		dims = []dim{{"host", p.NumHosts()}}
	case "toragg":
		dims = []dim{{"pod", p.Pods}, {"tor", p.TorsPerPod}, {"agg", p.AggsPerPod}}
	case "aggcore":
		dims = []dim{{"pod", p.Pods}, {"agg", p.AggsPerPod}, {"uplink", p.CoreUplinksPerAgg}}
	default:
		return nil, fmt.Errorf("faults: unknown fat-tree cable kind %q in %q", kind, name)
	}
	parts := strings.Split(rest, "/")
	if len(parts) != len(dims) {
		return nil, fmt.Errorf("faults: cable %q: want %d '/'-separated indices, got %q", name, len(dims), rest)
	}
	idx := make([]int, len(parts))
	for i, s := range parts {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("faults: cable %q: bad index %q in %q", name, s, rest)
		}
		idx[i] = v
	}
	for i, d := range dims {
		if idx[i] < 0 || idx[i] >= d.n {
			return nil, fmt.Errorf("faults: %s index %d out of range [0, %d)", d.name, idx[i], d.n)
		}
	}
	switch kind {
	case "host":
		return ft.HostLinks[idx[0]], nil
	case "toragg":
		return ft.TorAggLinks[idx[0]][idx[1]][idx[2]], nil
	}
	return ft.AggCoreLinks[idx[0]][idx[1]][idx[2]], nil
}
