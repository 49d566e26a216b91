package topo

import (
	"fmt"
	"sort"

	"flowbender/internal/netsim"
)

// AuditReport summarizes the static health of a built fabric: every host
// pair reachable, no routing loops, and the expected path diversity.
type AuditReport struct {
	Hosts          int
	Switches       int
	PairsChecked   int
	Unreachable    int
	Errors         []string
	MaxHops        int
	InterPodPaths  int // distinct paths observed between one inter-pod host pair across tags
	IntraTorPaths  int // for a same-ToR pair (always 1)
	TagDistinctMin int // min distinct paths over sampled pairs
}

// Audit verifies reachability between every host pair under the installed
// selector and measures the per-pair path diversity FlowBender can exploit
// (distinct TracePath results across the tag range). The fabric must have a
// deterministic selector installed (ECMP or WCMP).
func (ft *FatTree) Audit(tagRange uint32) AuditReport {
	rep := AuditReport{
		Hosts:    len(ft.Hosts),
		Switches: len(ft.AllSwitches()),
	}
	if tagRange == 0 {
		tagRange = 8
	}
	n := len(ft.Hosts)
	rep.TagDistinctMin = 1 << 30
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			rep.PairsChecked++
			pkt := &netsim.Packet{
				Src: netsim.NodeID(src), Dst: netsim.NodeID(dst),
				SrcPort: uint16(10000 + src*13 + dst), DstPort: 5001,
			}
			path, err := netsim.TracePath(ft.Hosts[src], pkt, 16)
			if err != nil {
				rep.Unreachable++
				if len(rep.Errors) < 10 {
					rep.Errors = append(rep.Errors, fmt.Sprintf("%d->%d: %v", src, dst, err))
				}
				continue
			}
			if len(path)-2 > rep.MaxHops { // switch hops
				rep.MaxHops = len(path) - 2
			}
		}
	}

	// Path diversity for a representative inter-pod pair and same-ToR pair.
	inter := ft.distinctPaths(0, ft.HostIndex(1, 0, 0), tagRange)
	rep.InterPodPaths = inter
	rep.IntraTorPaths = ft.distinctPaths(0, 1, tagRange)
	// Sample a handful of inter-pod pairs for the minimum diversity.
	for s := 0; s < 4 && s < ft.P.ServersPerTor; s++ {
		d := ft.distinctPaths(s, ft.HostIndex(ft.P.Pods-1, 0, s), tagRange)
		if d < rep.TagDistinctMin {
			rep.TagDistinctMin = d
		}
	}
	return rep
}

// distinctPaths counts the distinct forwarding paths between two hosts
// across the path-tag range.
func (ft *FatTree) distinctPaths(src, dst int, tagRange uint32) int {
	seen := map[string]bool{}
	for _, path := range ft.PathsByTag(src, dst, tagRange) {
		seen[fmt.Sprint(path)] = true
	}
	return len(seen)
}

// PathsByTag returns, for each tag in [0, tagRange), the node path a packet
// between the two hosts would take — the tool view of FlowBender's "V
// selects a path" mechanism.
func (ft *FatTree) PathsByTag(src, dst int, tagRange uint32) map[uint32][]netsim.NodeID {
	out := make(map[uint32][]netsim.NodeID, tagRange)
	for tag := uint32(0); tag < tagRange; tag++ {
		pkt := &netsim.Packet{
			Src: netsim.NodeID(src), Dst: netsim.NodeID(dst),
			SrcPort: 12345, DstPort: 5001, PathTag: tag,
		}
		if path, err := netsim.TracePath(ft.Hosts[src], pkt, 16); err == nil {
			out[tag] = path
		}
	}
	return out
}

// Format renders the report as text.
func (r AuditReport) Format() string {
	s := fmt.Sprintf("hosts=%d switches=%d pairs=%d unreachable=%d maxSwitchHops=%d\n",
		r.Hosts, r.Switches, r.PairsChecked, r.Unreachable, r.MaxHops)
	s += fmt.Sprintf("path diversity: inter-pod=%d same-tor=%d minSampled=%d\n",
		r.InterPodPaths, r.IntraTorPaths, r.TagDistinctMin)
	errs := append([]string(nil), r.Errors...)
	sort.Strings(errs)
	for _, e := range errs {
		s += "  error: " + e + "\n"
	}
	return s
}
