// Command fbtopo inspects the simulated fabrics: it audits reachability and
// path diversity, and shows exactly which path each FlowBender tag value V
// maps to between a pair of hosts — the mechanism the whole scheme rides on.
//
// Usage:
//
//	fbtopo -scale small                 # audit the fat-tree
//	fbtopo -scale paper -src 0 -dst 96  # show the V -> path mapping
package main

import (
	"flag"
	"fmt"
	"os"

	"flowbender/internal/experiments"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
)

// maxTags bounds -tags: the listing and the audit trace one path per tag
// value, so the range sizes their work and PathsByTag's map.
const maxTags = 1 << 16

// checkArgs refuses what fbtopo cannot honour: a listing needs both -src and
// -dst, and the tag range must be between 1 and maxTags.
func checkArgs(src, dst int, tags uint) error {
	switch {
	case src >= 0 && dst < 0:
		return fmt.Errorf("-src %d: a V->path listing needs -dst too", src)
	case dst >= 0 && src < 0:
		return fmt.Errorf("-dst %d: a V->path listing needs -src too", dst)
	case tags < 1 || tags > maxTags:
		return fmt.Errorf("-tags %d: must be between 1 and %d", tags, maxTags)
	}
	return nil
}

func main() {
	var (
		src  = flag.Int("src", -1, "source host for a V->path listing (needs -dst)")
		dst  = flag.Int("dst", -1, "destination host for a V->path listing (needs -src)")
		tags = flag.Uint("tags", 8, fmt.Sprintf("size of the path-tag range to enumerate (1 to %d)", maxTags))
	)
	rf := experiments.BindScaleFlag(flag.CommandLine)
	flag.Parse()

	err := checkArgs(*src, *dst, *tags)
	var scale experiments.ScaleLevel
	var p topo.Params
	if err == nil {
		scale, err = rf.Scale()
	}
	if err == nil {
		p, err = scale.PacketParams("fbtopo")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbtopo:", err)
		os.Exit(2)
	}
	tagRange := uint32(*tags)

	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, p)
	ft.SetSelector(routing.ECMP{})

	fmt.Printf("fat-tree %s: %d pods x (%d ToR + %d agg), %d cores, %d servers\n",
		scale, p.Pods, p.TorsPerPod, p.AggsPerPod, p.NumCores(), p.NumHosts())
	fmt.Printf("rates: access %d Gbps, tor-agg %d Gbps; oversubscription %.0fx; %d inter-pod paths\n\n",
		p.LinkRateBps/topo.Gbps, p.TorAggRateBps()/topo.Gbps, p.Oversubscription(), p.PathsBetweenPods())

	if *src >= 0 && *dst >= 0 {
		if *src >= p.NumHosts() || *dst >= p.NumHosts() || *src == *dst {
			fmt.Fprintln(os.Stderr, "fbtopo: invalid host pair")
			os.Exit(2)
		}
		fmt.Printf("V -> path for host %d -> host %d (switch IDs start at %d):\n", *src, *dst, p.NumHosts())
		paths := ft.PathsByTag(*src, *dst, tagRange)
		distinct := map[string]bool{}
		for tag := uint32(0); tag < tagRange; tag++ {
			path := paths[tag]
			key := fmt.Sprint(path)
			marker := " "
			if !distinct[key] {
				distinct[key] = true
				marker = "*"
			}
			fmt.Printf("  V=%d %s %v\n", tag, marker, path)
		}
		fmt.Printf("%d distinct paths across %d tag values (* = first occurrence)\n", len(distinct), tagRange)
		return
	}

	rep := ft.Audit(tagRange)
	fmt.Print(rep.Format())
	if rep.Unreachable > 0 {
		os.Exit(1)
	}
}
