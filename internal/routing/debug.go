package routing

import (
	"fmt"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// debugCheckPrefix cross-checks a packet's carried hash prefix against a
// from-scratch recomputation from its header fields. A divergence means a
// transport stamped the wrong prefix or a stale prefix survived packet
// recycling — either would silently re-route flows in release builds.
func debugCheckPrefix(pkt *netsim.Packet) {
	if !sim.Debug {
		return
	}
	want := FlowHashPrefix(pkt.Src, pkt.Dst, pkt.SrcPort, pkt.DstPort, pkt.Proto)
	if pkt.HashPrefix != want {
		panic(fmt.Sprintf(
			"routing: hash-prefix divergence: packet carries %#x, fields (%d->%d %d:%d %v) give %#x — stale or misstamped prefix",
			pkt.HashPrefix, pkt.Src, pkt.Dst, pkt.SrcPort, pkt.DstPort, pkt.Proto, want))
	}
}
