package topo

import (
	"fmt"
	"math"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// Partition assigns every device of a fat-tree to an execution shard. The
// unit of locality is a ToR together with all of its servers: host-to-ToR
// traffic is the fabric's densest and (with zero-delay links) least
// deferrable, so it must never cross a shard boundary. Aggs are placed on
// the shard owning their pod's ToRs (spread round-robin when a pod's ToRs
// span shards) and cores are dealt round-robin across all shards.
type Partition struct {
	Shards    int
	TorShard  [][]int // [pod][t]
	AggShard  [][]int // [pod][a]
	CoreShard []int   // [c]
	HostShard []int   // [h], always the host's ToR's shard
}

// PartitionFatTree splits a fat-tree into at most `shards` shards. The
// effective shard count is clamped to the number of ToRs — the smallest
// unit of locality — so tiny fabrics never produce empty shards.
func PartitionFatTree(p Params, shards int) Partition {
	validate(p)
	totalTors := p.Pods * p.TorsPerPod
	if shards > totalTors {
		shards = totalTors
	}
	if shards < 1 {
		shards = 1
	}
	pt := Partition{
		Shards:    shards,
		TorShard:  make([][]int, p.Pods),
		AggShard:  make([][]int, p.Pods),
		CoreShard: make([]int, p.NumCores()),
		HostShard: make([]int, p.NumHosts()),
	}
	for pod := 0; pod < p.Pods; pod++ {
		pt.TorShard[pod] = make([]int, p.TorsPerPod)
		for t := 0; t < p.TorsPerPod; t++ {
			// Contiguous balanced blocks: ToR group g of G lands on shard
			// g*S/G, keeping each shard's ToR count within one of the rest.
			g := pod*p.TorsPerPod + t
			pt.TorShard[pod][t] = g * shards / totalTors
		}
		pt.AggShard[pod] = make([]int, p.AggsPerPod)
		for a := 0; a < p.AggsPerPod; a++ {
			// Pod-aligned: co-locate each agg with one of its pod's ToRs so
			// intra-pod hops cross shards only when the pod itself does.
			pt.AggShard[pod][a] = pt.TorShard[pod][a%p.TorsPerPod]
		}
	}
	for c := range pt.CoreShard {
		pt.CoreShard[c] = c % shards
	}
	for h := range pt.HostShard {
		server := h / p.ServersPerTor
		pt.HostShard[h] = pt.TorShard[server/p.TorsPerPod][server%p.TorsPerPod]
	}
	return pt
}

// Lookahead returns the bounded-lag window width for this partition: the
// minimum, over every directed cross-shard cable, of the cable's propagation
// delay plus the receiving device's first scheduling delay (switch
// forwarding or host ingress). Any event one shard produces for another is
// therefore at least this far in the receiver's future, which is exactly the
// slack conservative synchronization needs. ok is false when the partition
// has no cross-shard cable (single shard) or when some cross-shard path has
// zero total slack, in which case sharded execution is not safe.
func (pt Partition) Lookahead(p Params) (w sim.Time, ok bool) {
	const inf = sim.Time(math.MaxInt64)
	min := inf
	edge := func(sa, sb int, d sim.Time) {
		if sa != sb && d < min {
			min = d
		}
	}
	toSwitch := p.LinkDelay + p.SwitchDelay
	toHost := p.LinkDelay + p.HostDelay
	for pod := 0; pod < p.Pods; pod++ {
		for t := 0; t < p.TorsPerPod; t++ {
			ts := pt.TorShard[pod][t]
			for s := 0; s < p.ServersPerTor; s++ {
				h := (pod*p.TorsPerPod+t)*p.ServersPerTor + s
				edge(pt.HostShard[h], ts, toSwitch) // host -> ToR
				edge(ts, pt.HostShard[h], toHost)   // ToR -> host
			}
			for a := 0; a < p.AggsPerPod; a++ {
				edge(ts, pt.AggShard[pod][a], toSwitch)
				edge(pt.AggShard[pod][a], ts, toSwitch)
			}
		}
		for a := 0; a < p.AggsPerPod; a++ {
			as := pt.AggShard[pod][a]
			for k := 0; k < p.CoreUplinksPerAgg; k++ {
				cs := pt.CoreShard[a*p.CoreUplinksPerAgg+k]
				edge(as, cs, toSwitch)
				edge(cs, as, toSwitch)
			}
		}
	}
	if min == inf {
		return 0, false
	}
	return min, min > 0
}

// ShardedFatTree is a fat-tree whose devices are spread over several engine
// instances, with every cross-shard cable interposed by a mailbox proxy.
// The embedded FatTree is structurally identical to a serial build (same
// NodeIDs, wiring, and routes); only execution placement differs.
type ShardedFatTree struct {
	*FatTree
	Part    Partition
	Engines []*sim.Engine
	// Pools holds each shard's private packet free list. Packets that cross
	// a shard boundary are recycled by the consuming shard's pool; the
	// aggregate stays balanced, per-pool Gets/Puts drift by design.
	Pools []*netsim.PacketPool
	// Boxes[from][to] is the SPSC mailbox for cross-shard arrivals; nil on
	// the diagonal.
	Boxes [][]*netsim.CrossBox
	// Window is the bounded-lag width computed from the partition.
	Window sim.Time
}

// NewShardedFatTree builds the fat-tree with each device on its partition's
// engine and interposes cross-shard proxies. len(engines) must equal
// part.Shards, and the partition must have positive lookahead.
func NewShardedFatTree(engines []*sim.Engine, p Params, part Partition) *ShardedFatTree {
	if len(engines) != part.Shards {
		panic(fmt.Sprintf("topo: %d engines for %d shards", len(engines), part.Shards))
	}
	w, ok := part.Lookahead(p)
	if !ok || w <= 0 {
		panic("topo: partition has no positive cross-shard lookahead; use the serial builder")
	}
	ft := newFatTree(p, engineMap{
		host: func(h int) *sim.Engine { return engines[part.HostShard[h]] },
		tor:  func(pod, t int) *sim.Engine { return engines[part.TorShard[pod][t]] },
		agg:  func(pod, a int) *sim.Engine { return engines[part.AggShard[pod][a]] },
		core: func(c int) *sim.Engine { return engines[part.CoreShard[c]] },
	})
	ft.Eng = engines[0]
	sft := &ShardedFatTree{FatTree: ft, Part: part, Engines: engines, Window: w}

	sft.Pools = make([]*netsim.PacketPool, part.Shards)
	for i := range sft.Pools {
		sft.Pools[i] = netsim.NewPacketPool()
	}
	ft.Pool = sft.Pools[0]
	for h, host := range ft.Hosts {
		host.UsePool(sft.Pools[part.HostShard[h]])
	}
	for pod := range ft.Tors {
		for t, tor := range ft.Tors[pod] {
			tor.UsePool(sft.Pools[part.TorShard[pod][t]])
		}
		for a, agg := range ft.Aggs[pod] {
			agg.UsePool(sft.Pools[part.AggShard[pod][a]])
		}
	}
	for c, core := range ft.Cores {
		core.UsePool(sft.Pools[part.CoreShard[c]])
	}
	ft.Reset(p)

	sft.Boxes = make([][]*netsim.CrossBox, part.Shards)
	for i := range sft.Boxes {
		sft.Boxes[i] = make([]*netsim.CrossBox, part.Shards)
		for j := range sft.Boxes[i] {
			if i != j {
				sft.Boxes[i][j] = &netsim.CrossBox{}
			}
		}
	}

	// Interpose a proxy on each direction of every cross-shard cable. Host
	// cables never cross (hosts are pinned to their ToR's shard).
	for pod := range ft.Tors {
		for t := range ft.Tors[pod] {
			ts := part.TorShard[pod][t]
			for a := range ft.Aggs[pod] {
				sft.interpose(ft.TorAggLinks[pod][t][a], ts, part.AggShard[pod][a])
			}
		}
		for a := range ft.Aggs[pod] {
			as := part.AggShard[pod][a]
			for k := range ft.AggCoreLinks[pod][a] {
				cs := part.CoreShard[a*p.CoreUplinksPerAgg+k]
				sft.interpose(ft.AggCoreLinks[pod][a][k], as, cs)
			}
		}
	}
	return sft
}

// interpose wraps both directions of a cable whose A side runs on shard sa
// and B side on shard sb.
func (sft *ShardedFatTree) interpose(d *netsim.Duplex, sa, sb int) {
	if sa == sb {
		return
	}
	d.AtoB.Link.To = netsim.NewCrossLink(sft.Engines[sa], sft.Boxes[sa][sb], d.AtoB.Link.To)
	d.BtoA.Link.To = netsim.NewCrossLink(sft.Engines[sb], sft.Boxes[sb][sa], d.BtoA.Link.To)
}

// DrainInbox appends every message addressed to shard into buf and returns
// it; callers hand the result to netsim.MergeCross at the window barrier.
func (sft *ShardedFatTree) DrainInbox(shard int, buf []netsim.CrossMsg) []netsim.CrossMsg {
	for from := range sft.Boxes {
		if b := sft.Boxes[from][shard]; b != nil {
			buf = b.Drain(buf)
		}
	}
	return buf
}
