// Package tcp implements a packet-level TCP for the simulated fabric:
// NewReno loss recovery (slow start, congestion avoidance, duplicate-ACK
// fast retransmit, fast recovery with partial-ACK retransmission, RTO with a
// 10 ms floor) with DCTCP congestion control on top (per-packet ECN echo,
// marked-fraction EWMA with g = 1/16, proportional window reduction), which
// is the base stack used for every scheme in the paper's evaluation (§4.2).
//
// A flow optionally carries a FlowBender controller (internal/core): the
// sender reports every ACK's ECN echo and every RTT epoch to it, stamps its
// path tag V into all outgoing packets, and notifies it on RTOs — this is
// the entirety of the "less than 50 lines of kernel code" host change the
// paper describes.
package tcp

import (
	"flowbender/internal/core"
	"flowbender/internal/sim"
)

// Config holds the transport parameters shared by the flows of a run.
type Config struct {
	// MSS is the maximum segment (payload) size in bytes. Default 1460.
	MSS int
	// InitCwnd is the initial congestion window in segments. Default 10.
	InitCwnd int
	// RTOMin is the minimum retransmission timeout. Default 10 ms (§4.2).
	RTOMin sim.Time
	// RTOMax caps exponential backoff. Default 1 s.
	RTOMax sim.Time
	// DupThresh is the duplicate-ACK fast-retransmit threshold. Default 3.
	// DeTail runs with fast retransmit disabled (set DisableFastRetx), per
	// the paper.
	DupThresh int
	// DisableFastRetx turns off duplicate-ACK retransmission entirely.
	DisableFastRetx bool
	// MaxCwnd caps the congestion window in bytes, modeling the bounds real
	// stacks impose (receive-window auto-tuning, TCP small queues): without
	// it, a NIC-bottlenecked flow sees neither marks nor drops and slow
	// start would grow the window to the whole flow size, making later
	// congestion reactions arbitrarily sluggish. Default 224 KB (~2x the
	// fabric's 112 KB bandwidth-delay product).
	MaxCwnd int
	// DCTCPg is the marked-fraction EWMA gain. Default 1/16.
	DCTCPg float64
	// DisableDCTCP falls back to plain NewReno+ECN halving (not used by the
	// paper's evaluation, available for ablation).
	DisableDCTCP bool
	// FlowBender, when non-nil, attaches a FlowBender controller with this
	// configuration to every flow.
	FlowBender *core.Config
	// FilterStaleFeedback excludes ACKs that echo a previous path tag from
	// FlowBender's marked-fraction accounting, so the one RTT of feedback
	// still in flight from the old path cannot trigger an immediate second
	// reroute. On by default via DefaultConfig; disable for ablation.
	FilterStaleFeedback bool
	// Replicate, when non-nil, enables RepFlow-style short-flow replication:
	// StartFlow transparently launches qualifying flows as two sub-flows
	// whose distinct port numbers give them independent ECMP path draws; the
	// first sub-flow to deliver the full payload wins and the loser is torn
	// down (see Flow.Replicated).
	Replicate *ReplicateConfig
	// SprayShortCutoff, when > 0, stamps Packet.Spray on every packet of
	// flows with Size < SprayShortCutoff. Spray-aware selectors
	// (routing.DiffFlow) route marked packets per packet, RPS-style, while
	// unmarked traffic stays on per-flow ECMP paths.
	SprayShortCutoff int64
}

// ReplicateConfig parameterizes RepFlow replication (Xu & Li): short flows
// are transmitted as ReplicationFactor identical sub-flows on independently
// hashed paths, and the application takes whichever copy completes first —
// trading a bounded amount of extra traffic (short flows carry a tiny
// fraction of datacenter bytes) for an FCT minimum over path draws.
type ReplicateConfig struct {
	// Cutoff: flows with Size < Cutoff bytes are replicated. RepFlow's
	// paper value is 100 KB.
	Cutoff int64
}

// ReplicationFactor is the number of copies a replicated flow transmits.
// RepFlow fixes this at 2: one replica already drives the probability that
// every copy hashes onto a congested path low enough that more copies buy
// almost nothing while doubling the overhead again.
const ReplicationFactor = 2

// DefaultConfig returns the paper's §4.2 transport settings.
func DefaultConfig() Config {
	c := Config{FilterStaleFeedback: true}
	return c.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.MSS == 0 {
		c.MSS = 1460
	}
	if c.InitCwnd == 0 {
		c.InitCwnd = 10
	}
	if c.RTOMin == 0 {
		c.RTOMin = 10 * sim.Millisecond
	}
	if c.RTOMax == 0 {
		c.RTOMax = 1 * sim.Second
	}
	if c.DupThresh == 0 {
		c.DupThresh = 3
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 224 * 1024
	}
	if c.DCTCPg == 0 {
		c.DCTCPg = 1.0 / 16.0
	}
	return c
}
