package netsim

import "flowbender/internal/sim"

// Duplex is a handle to a full-duplex cable between two devices: its two
// egress ports, whose Port.SetLinkDown cuts a direction. Switch forwarding
// tables are deliberately left stale across a cut, modeling the O(seconds)
// routing reconvergence the paper contrasts against FlowBender's O(RTO)
// end-to-end recovery.
type Duplex struct {
	AtoB *Port // a's egress toward b
	BtoA *Port // b's egress toward a
}

// WireSwitches connects egress port ap of a to input/egress port bp of b in
// both directions with the given propagation delay. Port rates were fixed at
// switch construction.
func WireSwitches(a *Switch, ap int, b *Switch, bp int, delay sim.Time) *Duplex {
	a.Ports[ap].Link = Link{To: b, ToPort: bp, Delay: delay}
	b.Ports[bp].Link = Link{To: a, ToPort: ap, Delay: delay}
	a.upstream[ap] = b.Ports[bp]
	b.upstream[bp] = a.Ports[ap]
	return &Duplex{AtoB: a.Ports[ap], BtoA: b.Ports[bp]}
}

// WireHost connects host h to switch port sp of sw in both directions.
func WireHost(h *Host, sw *Switch, sp int, delay sim.Time) *Duplex {
	h.NIC.Link = Link{To: sw, ToPort: sp, Delay: delay}
	sw.Ports[sp].Link = Link{To: h, ToPort: 0, Delay: delay}
	sw.upstream[sp] = h.NIC
	return &Duplex{AtoB: h.NIC, BtoA: sw.Ports[sp]}
}
