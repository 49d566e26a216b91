package experiments

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
	"flowbender/internal/topo"
	"flowbender/internal/udp"
	"flowbender/internal/workload"
)

// UDPSprayResult covers the §3.4.3 extension: unreliable transports can
// re-draw the path tag every burst instead of only on congestion, spraying
// load across paths at a controlled pace (applications over UDP tolerate
// reordering). We compare a pinned UDP flow, per-burst spraying at several
// burst sizes, and per-packet spraying, by the balance they achieve across
// the spine paths and the reordering they induce.
type UDPSprayResult struct {
	Variants []string
	// MaxShare is the largest fraction of the flow's bytes on any single
	// path (1.0 = pinned; 1/Paths = perfectly spread).
	MaxShare []float64
	// OOOFrac is the fraction of datagrams arriving out of order.
	OOOFrac []float64
	Paths   int
}

// UDPSpray runs one 8 Gbps UDP flow across the leaf-spine for each variant.
func UDPSpray(o Options) *UDPSprayResult {
	type variant struct {
		name  string
		burst int64 // 0 = pinned, 1 = per-packet
	}
	variants := []variant{
		{"pinned (single path)", 0},
		{"spray per 256 KB burst", 256 * 1024},
		{"spray per 64 KB burst", 64 * 1024},
		{"spray per packet", 1},
	}
	res := &UDPSprayResult{Paths: topo.SmallTestbed().AggsPerPod}
	// Each variant is an independent simulation point.
	name := func(v variant) string {
		return o.pointLabel("udpspray/%s/seed=%d", v.name, o.Seed)
	}
	outs := fanOut(o, variants, name, func(oo Options, v variant) [2]float64 {
		maxShare, ooo := oo.runUDPSpray(v.burst)
		return [2]float64{maxShare, ooo}
	})
	for i, v := range variants {
		res.Variants = append(res.Variants, v.name)
		res.MaxShare = append(res.MaxShare, outs[i][0])
		res.OOOFrac = append(res.OOOFrac, outs[i][1])
		o.logf("udpspray: %-24s maxShare=%.3f ooo=%.4f", v.name, outs[i][0], outs[i][1])
	}
	return res
}

// runUDPSpray runs one variant. It starts no TCP flow: the point runs to its
// deadline, and the senders stop at the 20 ms barrier.
func (o Options) runUDPSpray(burst int64) (maxShare, oooFrac float64) {
	lp := topo.SmallTestbed()
	var s, bg *udp.Sender
	o.runPoint(point{
		scheme: ECMP,
		params: &lp,
		flows:  math.MaxInt,
		workload: func(*sim.RNG, topo.Params) (workload.Schedule, sim.Time) {
			return &batches{}, 25 * sim.Millisecond
		},
		arm: func(ft *topo.FatTree, rng *sim.RNG) (func(), error) {
			host := func(tor, i int) *netsim.Host { return ft.Hosts[lp.TorHosts(0, tor)[i]] }
			src, dst := host(0, 0), host(1, 0)
			s = udp.NewSender(ft.Eng, 1, src, dst, 8*topo.Gbps, 1460)
			if burst > 0 {
				s.Sprayer = core.NewSprayer(core.DefaultNumValues, burst, rng.Fork("spray"))
			}
			sink := udp.NewSink()
			dst.Register(1, sink)
			s.Start()

			// Background traffic from a third ToR toward the destination
			// builds a standing queue on one spine-to-destination downlink,
			// so the sprayed flow's paths really do differ in depth — the
			// condition under which spraying reorders. (It originates
			// elsewhere so the source ToR's uplink counters measure only the
			// foreground flow.)
			bg = udp.NewSender(ft.Eng, 2, host(2, 0), host(1, 1), 7*topo.Gbps, 1460)
			host(1, 1).Register(2, udp.NewSink())
			bg.Start()

			return func() {
				var total, max int64
				for _, l := range ft.TorAggLinks[0][0] {
					b := l.AtoB.TxBytes(netsim.ProtoUDP)
					total += b
					if b > max {
						max = b
					}
				}
				if total > 0 {
					maxShare = float64(max) / float64(total)
				}
				if sink.Packets > 0 {
					oooFrac = float64(sink.OutOfOrder) / float64(sink.Packets)
				}
			}, nil
		},
		onBarrier: func(now sim.Time) {
			if now == 20*sim.Millisecond {
				s.Stop()
				bg.Stop()
			}
		},
	})
	return maxShare, oooFrac
}

// Print writes the spray comparison.
func (r *UDPSprayResult) Print(w io.Writer) {
	fmt.Fprintln(w, "UDP burst-level spraying (§3.4.3): one 8 Gbps UDP flow over 4 spine paths")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\tmax per-path byte share\tout-of-order fraction")
	for i, v := range r.Variants {
		fmt.Fprintf(tw, "%s\t%.3f\t%.4f\n", v, r.MaxShare[i], r.OOOFrac[i])
	}
	tw.Flush()
	fmt.Fprintln(w, "  (smaller bursts spread load better at the cost of reordering, which UDP applications tolerate)")
}
