// Package tcp implements a packet-level TCP for the simulated fabric:
// NewReno loss recovery (slow start, congestion avoidance, duplicate-ACK
// fast retransmit, fast recovery with partial-ACK retransmission, RTO with
// exponential backoff) with DCTCP congestion control on top (per-packet ECN
// echo, marked-fraction EWMA, proportional window reduction), which is the
// base stack used for every scheme in the paper's evaluation (§4.2). Its
// parameters are the package constants MSS, InitCwnd, RTOMin, RTOMax,
// DupThresh, MaxCwnd and DCTCPg; Config holds only what differs between
// schemes.
//
// A flow optionally carries a FlowBender controller (internal/core): the
// sender reports every ACK's ECN echo and every RTT epoch to it, stamps its
// path tag V into all outgoing packets, and notifies it on RTOs — this is
// the entirety of the "less than 50 lines of kernel code" host change the
// paper describes. ACKs that echo a path tag the flow has already left are
// not counted towards FlowBender's marked fraction.
package tcp

import (
	"flowbender/internal/core"
	"flowbender/internal/sim"
)

// The transport every scheme runs (§4.2).
const (
	// MSS is the maximum segment (payload) size in bytes.
	MSS = 1460
	// InitCwnd is the initial congestion window in segments.
	InitCwnd = 10
	// RTOMin is the minimum retransmission timeout (§4.2).
	RTOMin = 10 * sim.Millisecond
	// RTOMax caps exponential backoff.
	RTOMax = 1 * sim.Second
	// DupThresh is the duplicate-ACK fast-retransmit threshold before
	// reordering widens it.
	DupThresh = 3
	// MaxCwnd caps the congestion window in bytes, modeling the bounds real
	// stacks impose (receive-window auto-tuning, TCP small queues): without
	// it, a NIC-bottlenecked flow sees neither marks nor drops and slow
	// start would grow the window to the whole flow size, making later
	// congestion reactions arbitrarily sluggish. 224 KB is ~2x the fabric's
	// 112 KB bandwidth-delay product.
	MaxCwnd = 224 * 1024
	// DCTCPg is DCTCP's marked-fraction EWMA gain.
	DCTCPg = 1.0 / 16.0
)

// Config holds what the schemes of a run set on the transport. The zero
// value is plain DCTCP.
type Config struct {
	// DisableFastRetx turns off duplicate-ACK retransmission entirely, as
	// DeTail runs per the paper.
	DisableFastRetx bool
	// FlowBender, when non-nil, attaches a FlowBender controller with this
	// configuration to every flow.
	FlowBender *core.Config
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

// DefaultConfig returns the paper's §4.2 transport: the zero Config.
func DefaultConfig() Config { return Config{} }
