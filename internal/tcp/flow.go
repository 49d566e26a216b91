package tcp

import (
	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// Flow is one finite TCP transfer and its measured outcome.
type Flow struct {
	ID   netsim.FlowID
	Src  *netsim.Host
	Dst  *netsim.Host
	Size int64 // payload bytes to transfer

	Start    sim.Time // when the sender was started
	RecvDone sim.Time // when the last payload byte arrived in order (-1 until then)
	SendDone sim.Time // when the sender saw everything acked (-1 until then)

	// OnComplete, if set, runs when the receiver has the full payload.
	OnComplete func(f *Flow)

	sender   *Sender
	receiver *Receiver

	// rep is non-nil on the parent flow of a RepFlow-replicated pair.
	rep *repFlow
}

// repFlow tracks a replicated flow's sub-flows and which one won.
type repFlow struct {
	subs   [ReplicationFactor]*Flow
	winner int // index into subs, -1 until the first sub-flow completes
}

// FCT returns the receiver-side flow completion time. It panics if the flow
// has not completed (call after the run, or from OnComplete).
func (f *Flow) FCT() sim.Time {
	if f.RecvDone < 0 {
		panic("tcp: FCT of incomplete flow")
	}
	return f.RecvDone - f.Start
}

// Done reports whether the receiver has the full payload.
func (f *Flow) Done() bool { return f.RecvDone >= 0 }

// Sender returns the flow's sender endpoint.
func (f *Flow) Sender() *Sender { return f.sender }

// Receiver returns the flow's receiver endpoint.
func (f *Flow) Receiver() *Receiver { return f.receiver }

// OutOfOrder returns the number of data packets that arrived after a
// higher-sequence packet had already been seen.
func (f *Flow) OutOfOrder() int64 { return f.receiver.OutOfOrder }

// DataPackets returns the number of data packets received (including
// retransmissions).
func (f *Flow) DataPackets() int64 { return f.receiver.DataPackets }

// Recovery returns the flow's outage-recovery statistics: each episode runs
// from the first RTO after healthy operation to the next delivered
// cumulative ACK (§3.3.2's time-to-recover).
func (f *Flow) Recovery() RecoveryStats { return f.sender.RecoveryStats() }

// FlowBenderStats returns the attached controller's counters, or a zero
// value when the flow runs without FlowBender.
func (f *Flow) FlowBenderStats() core.Stats {
	if f.sender.fb == nil {
		return core.Stats{}
	}
	return f.sender.fb.Stats()
}

// StartFlow creates a sender on src and a receiver on dst for size payload
// bytes and begins transmitting immediately. Port numbers are derived from
// the flow ID to give the ECMP hash its 5-tuple entropy. The eng parameter
// is retained for API stability; each endpoint runs on its own host's
// engine, which is the fabric's one engine.
//
// When cfg.Replicate is set and the flow qualifies (Size < Cutoff), the
// returned Flow is a replicated parent: it owns two live sub-flows on
// independently hashed paths and completes when the first of them delivers
// the payload (see Replicated).
func StartFlow(eng *sim.Engine, cfg Config, id netsim.FlowID, src, dst *netsim.Host, size int64) *Flow {
	_ = eng
	if rc := cfg.Replicate; rc != nil && size < rc.Cutoff {
		return startReplicated(cfg, id, src, dst, size)
	}
	pf := planFlow(cfg, id, src, dst, size)
	pf.startReceiver()
	pf.startSender()
	return pf.f
}

// replicaIDBit distinguishes a replica sub-flow's ID from its primary's in
// the hosts' dispatch tables. Bit 62 keeps IDs positive and far above any
// workload allocator's range; the distinct ID also yields a distinct source
// port (planFlow derives ports from the ID), which is exactly what gives
// the replica an independent ECMP path draw.
const replicaIDBit netsim.FlowID = 1 << 62

// ReplicaID returns the flow ID RepFlow's replica sub-flow of id runs under.
func ReplicaID(id netsim.FlowID) netsim.FlowID { return id | replicaIDBit }

// startReplicated launches a RepFlow pair: two full copies of the payload
// under distinct flow IDs (hence distinct port draws), racing to the same
// receiver host. The parent flow holds no endpoints of its own; until a
// winner is declared it reports the primary sub-flow's, so harness code
// reading Sender() off incomplete flows keeps working.
func startReplicated(cfg Config, id netsim.FlowID, src, dst *netsim.Host, size int64) *Flow {
	parent := &Flow{
		ID: id, Src: src, Dst: dst, Size: size,
		Start: -1, RecvDone: -1, SendDone: -1,
		rep: &repFlow{winner: -1},
	}
	sub := cfg
	sub.Replicate = nil // sub-flows must not recurse
	pend := [ReplicationFactor]*pendingFlow{
		planFlow(sub, id, src, dst, size),
		planFlow(sub, ReplicaID(id), src, dst, size),
	}
	for i, pf := range pend {
		f := pf.f
		f.OnComplete = parent.subDone
		parent.rep.subs[i] = f
	}
	// Mirror StartFlow's receiver-before-sender order for each sub-flow, all
	// receivers first: no sender may emit before every dispatch slot of the
	// pair is claimed.
	for _, pf := range pend {
		pf.startReceiver()
	}
	for _, pf := range pend {
		pf.startSender()
	}
	parent.Start = parent.rep.subs[0].Start
	parent.sender = parent.rep.subs[0].sender
	parent.receiver = parent.rep.subs[0].receiver
	return parent
}

// subDone is the OnComplete hook of both sub-flows: the first finisher
// becomes the winner and defines every parent observable (FCT, reordering,
// recovery stats — exactly one sub-flow's bytes count as delivered); the
// loser's sender is aborted and torn down. A loser whose in-flight data
// later completes its receiver lands here a second time and is ignored.
func (f *Flow) subDone(sub *Flow) {
	rep := f.rep
	if rep.winner >= 0 {
		return
	}
	w := 0
	for i, s := range rep.subs {
		if s == sub {
			w = i
		}
	}
	rep.winner = w
	f.sender = sub.sender
	f.receiver = sub.receiver
	f.RecvDone = sub.RecvDone
	rep.subs[1-w].sender.Abort()
	if f.OnComplete != nil {
		f.OnComplete(f)
	}
}

// Replicated reports whether this flow is a RepFlow parent.
func (f *Flow) Replicated() bool { return f.rep != nil }

// SubFlows returns a replicated parent's sub-flows (nil otherwise). The
// parent's own SendDone stays -1; per-sub-flow sender state lives on the
// sub-flows.
func (f *Flow) SubFlows() []*Flow {
	if f.rep == nil {
		return nil
	}
	return f.rep.subs[:]
}

// Winner returns the sub-flow that delivered the payload first, or nil
// while the race is still open (or for unreplicated flows).
func (f *Flow) Winner() *Flow {
	if f.rep == nil || f.rep.winner < 0 {
		return nil
	}
	return f.rep.subs[f.rep.winner]
}

// pendingFlow is a planned but not yet started flow: StartFlow starts its
// receiver, then its sender; a RepFlow pair starts both receivers before
// either sender.
type pendingFlow struct {
	f                *Flow
	cfg              Config
	srcPort, dstPort uint16
}

// planFlow allocates the flow record without touching either host.
// Flow.Start stays unset until startSender runs.
func planFlow(cfg Config, id netsim.FlowID, src, dst *netsim.Host, size int64) *pendingFlow {
	f := &Flow{
		ID: id, Src: src, Dst: dst, Size: size,
		Start: -1, RecvDone: -1, SendDone: -1,
	}
	srcPort, dstPort := PortsFor(id)
	return &pendingFlow{
		f:       f,
		cfg:     cfg,
		srcPort: srcPort,
		dstPort: dstPort,
	}
}

// PortsFor returns the port numbers a flow with this ID runs under — the
// ID-derived source port that gives the ECMP hash its 5-tuple entropy, and
// the fixed service port. Exported so the fluid engine reproduces the packet
// engine's per-flow hash draws from IDs alone.
func PortsFor(id netsim.FlowID) (srcPort, dstPort uint16) {
	return uint16(10000 + (uint64(id)*2654435761)%50000), 5001
}

// startReceiver creates the receiver endpoint and claims the destination
// host's dispatch slot. No events are scheduled; the receiver only reacts
// to arriving packets.
func (pf *pendingFlow) startReceiver() {
	pf.f.receiver = newReceiver(pf.f.Dst.Engine(), pf.cfg, pf.f, pf.dstPort, pf.srcPort)
	pf.f.Dst.Register(pf.f.ID, pf.f.receiver)
}

// startSender creates the sender endpoint, claims the source host's dispatch
// slot, stamps Flow.Start with the source engine's clock, and begins
// transmitting.
func (pf *pendingFlow) startSender() {
	eng := pf.f.Src.Engine()
	pf.f.Start = eng.Now()
	pf.f.sender = newSender(eng, pf.cfg, pf.f, pf.srcPort, pf.dstPort)
	pf.f.Src.Register(pf.f.ID, pf.f.sender)
	pf.f.sender.start()
}
