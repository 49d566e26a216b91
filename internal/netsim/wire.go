package netsim

import "flowbender/internal/sim"

// Duplex is a handle to a full-duplex cable between two devices, usable to
// inject failures (both directions at once, as a cut cable behaves).
type Duplex struct {
	AtoB *Port // a's egress toward b
	BtoA *Port // b's egress toward a
}

// Fail cuts the cable: packets serialized onto either direction are lost.
// Switch forwarding tables are deliberately left stale, modeling the
// O(seconds) routing reconvergence the paper contrasts against FlowBender's
// O(RTO) end-to-end recovery.
func (d *Duplex) Fail() {
	d.AtoB.SetLinkDown(true)
	d.BtoA.SetLinkDown(true)
}

// Restore brings the cable back up (both directions).
func (d *Duplex) Restore() {
	d.AtoB.SetLinkDown(false)
	d.BtoA.SetLinkDown(false)
}

// FailAtoB cuts only the A-to-B direction (a half-open failure: traffic
// still flows B-to-A). FailBtoA is its mirror.
func (d *Duplex) FailAtoB() { d.AtoB.SetLinkDown(true) }

// FailBtoA cuts only the B-to-A direction.
func (d *Duplex) FailBtoA() { d.BtoA.SetLinkDown(true) }

// Failed reports whether the cable is fully down: both directions cut. A
// half-open cable (one direction down) is NOT Failed — use HalfOpen to
// detect it.
func (d *Duplex) Failed() bool { return d.AtoB.Link.Down && d.BtoA.Link.Down }

// HalfOpen reports whether exactly one direction of the cable is down — the
// half-open failure mode where data flows one way but nothing returns.
func (d *Duplex) HalfOpen() bool { return d.AtoB.Link.Down != d.BtoA.Link.Down }

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
