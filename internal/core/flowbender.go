// Package core implements FlowBender, the paper's contribution: end-host,
// flow-level adaptive routing for ECMP datacenter fabrics (Kabbani et al.,
// CoNEXT 2014).
//
// A FlowBender instance is attached to one transport flow. The transport
// feeds it one OnAck call per acknowledgment (with the ECN-echo bit) and one
// OnRTTEnd call per round-trip epoch; FlowBender tracks the fraction F of
// marked ACKs in the epoch and, when F exceeds the threshold T for N
// consecutive epochs — or when the transport suffers a retransmission
// timeout — it re-draws the flow's path tag V. The transport stamps V into a
// flexible header field (TTL, VLAN ID, ...) that switches fold into their
// ECMP hash, so a new V re-routes every subsequent packet of the flow onto
// an independently hashed path while keeping all packets of one V in order.
//
// The package is transport-agnostic: internal/tcp drives it from DCTCP's ECN
// stream, and Sprayer reuses the tag mechanism for the paper's §3.4.3
// burst-level spraying of unreliable (UDP) traffic.
package core

import (
	"fmt"

	"flowbender/internal/sim"
)

// Default parameter values, per §4.2 of the paper.
const (
	// DefaultT is the congestion threshold on the fraction of marked ACKs.
	DefaultT = 0.05
	// DefaultN is the number of consecutive congested RTTs before rerouting.
	DefaultN = 1
	// DefaultNumValues is the size of the path-tag range; the paper found 8
	// options empirically sufficient (even 2 were effective).
	DefaultNumValues = 8
)

// Config holds FlowBender's tuning knobs. The zero value is usable and maps
// to the paper's recommended settings.
type Config struct {
	// T is the congestion threshold: an RTT epoch is "congested" when the
	// fraction of ECN-marked ACKs exceeds T. 0 means DefaultT. The paper
	// found FlowBender effective across T in [1%, 10%] (§3.4, Figure 7).
	T float64

	// N is how many consecutive congested RTTs are required before the flow
	// is rerouted (§3.4.1). 0 means DefaultN (= 1, reroute immediately).
	N int

	// NumValues is the number of distinct path-tag values V is drawn from.
	// 0 means DefaultNumValues.
	NumValues uint32

	// DesyncN, when true, randomizes the required consecutive count among
	// {N-1, N, N+1} after each reroute, the paper's §3.4.2 option for
	// de-synchronizing simultaneous rerouting waves. Requires RNG.
	DesyncN bool

	// EWMAGamma, when in (0,1], smooths F across epochs as
	// F <- gamma*F_epoch + (1-gamma)*F before comparing against T — the
	// §3.4.1 footnote's optional smoother. 0 disables smoothing (paper
	// default: compare the raw per-epoch fraction).
	EWMAGamma float64

	// MinEpochGap, when > 0, enforces at least this many RTT epochs between
	// congestion-triggered reroutes — the §5.1 stability extension limiting
	// path-change thrashing. Timeout-triggered reroutes are never limited
	// (a broken path must be escaped immediately). A negative value means
	// explicitly disabled (useful where a caller treats 0 as "use default").
	MinEpochGap int

	// RNG supplies randomness for V draws and DesyncN. When nil, V cycles
	// deterministically through its range (V+1 mod NumValues), which is the
	// simplest conforming implementation and convenient for tests. The
	// starting V is a uniform draw with an RNG and 0 without one.
	RNG *sim.RNG
}

func (c Config) withDefaults() Config {
	if c.T == 0 {
		c.T = DefaultT
	}
	if c.N == 0 {
		c.N = DefaultN
	}
	if c.NumValues == 0 {
		c.NumValues = DefaultNumValues
	}
	return c
}

func (c Config) validate() error {
	if c.T < 0 || c.T > 1 {
		return fmt.Errorf("flowbender: T=%v out of [0,1]", c.T)
	}
	if c.N < 0 {
		return fmt.Errorf("flowbender: N=%d negative", c.N)
	}
	if c.EWMAGamma < 0 || c.EWMAGamma > 1 {
		return fmt.Errorf("flowbender: EWMAGamma=%v out of [0,1]", c.EWMAGamma)
	}
	if c.DesyncN && c.RNG == nil {
		return fmt.Errorf("flowbender: DesyncN requires an RNG")
	}
	if c.MinEpochGap < -1 {
		return fmt.Errorf("flowbender: MinEpochGap=%d invalid", c.MinEpochGap)
	}
	return nil
}

// Stats are cumulative counters describing one flow's rerouting history.
type Stats struct {
	Epochs          int64 // RTT epochs observed
	CongestedEpochs int64 // epochs with F > T
	Reroutes        int64 // total V changes
	TimeoutReroutes int64 // V changes triggered by RTOs
	SuppressedByGap int64 // reroutes skipped due to MinEpochGap
	LastF           float64
}

// FlowBender is the per-flow rerouting controller. It is not safe for
// concurrent use; a flow's transport drives it from the simulation loop.
type FlowBender struct {
	cfg Config

	tag           uint32
	marked, total int64 // ACK counts in the current epoch
	congested     int   // consecutive congested epochs
	requiredN     int   // current N target (varies under DesyncN)
	fSmooth       float64
	sinceReroute  int // epochs since last reroute (for MinEpochGap)

	stats Stats
}

// New returns a controller for one flow. It panics on an invalid Config
// (programmer error: the config is code, not input).
func New(cfg Config) *FlowBender {
	fb := Make(cfg)
	return &fb
}

// Make is New without the heap allocation: it returns the controller by
// value for embedding in caller-managed slot arrays (the fluid engine keeps
// one per transfer slot in a parallel slice so steady-state flow churn
// allocates nothing). Semantics are identical to New.
func Make(cfg Config) FlowBender {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	fb := FlowBender{cfg: cfg, requiredN: cfg.N, sinceReroute: 1 << 30}
	if cfg.RNG != nil {
		fb.tag = uint32(cfg.RNG.Intn(int(cfg.NumValues)))
	}
	if cfg.DesyncN {
		fb.drawRequiredN()
	}
	return fb
}

// PathTag returns the current value V to stamp into outgoing packets.
func (fb *FlowBender) PathTag() uint32 { return fb.tag }

// OnAck records one acknowledgment; marked is the ACK's ECN-echo bit.
func (fb *FlowBender) OnAck(marked bool) {
	fb.total++
	if marked {
		fb.marked++
	}
}

// OnRTTEnd closes the current RTT epoch, evaluating the pseudocode of §3.4.1:
//
//	F = marked/total
//	if F > T { if ++congested >= N { congested = 0; change V } }
//	else     { congested = 0 }
//
// It returns true when the flow was rerouted. Epochs with no ACKs are
// ignored (no information).
func (fb *FlowBender) OnRTTEnd() bool {
	if fb.total == 0 {
		return false
	}
	f := float64(fb.marked) / float64(fb.total)
	fb.marked, fb.total = 0, 0
	return fb.closeEpoch(f)
}

// OnEpochF closes one RTT epoch with an externally estimated marked-ACK
// fraction f, applying exactly the §3.4.1 decision rule OnRTTEnd applies to
// the counted fraction. The fluid engine drives it: there is no per-ACK
// stream at flow-level fidelity, so f comes from the M/M/1-style marking
// model over the flow's path utilization. Unlike OnRTTEnd, every call
// counts as an observed epoch (the estimate always carries information).
// Any ACK counts accumulated via OnAck are discarded.
func (fb *FlowBender) OnEpochF(f float64) bool {
	fb.marked, fb.total = 0, 0
	return fb.closeEpoch(f)
}

// closeEpoch is the shared tail of OnRTTEnd/OnEpochF: EWMA smoothing, epoch
// accounting, the N-consecutive congestion test, the MinEpochGap limiter,
// and the reroute itself. Returns true when the flow was rerouted.
func (fb *FlowBender) closeEpoch(f float64) bool {
	if g := fb.cfg.EWMAGamma; g > 0 {
		fb.fSmooth = g*f + (1-g)*fb.fSmooth
		f = fb.fSmooth
	}
	fb.stats.Epochs++
	fb.stats.LastF = f
	fb.sinceReroute++

	if f <= fb.cfg.T {
		fb.congested = 0
		return false
	}
	fb.stats.CongestedEpochs++
	fb.congested++
	if fb.congested < fb.requiredN {
		return false
	}
	fb.congested = 0
	if gap := fb.cfg.MinEpochGap; gap > 0 && fb.sinceReroute < gap {
		fb.stats.SuppressedByGap++
		return false
	}
	fb.reroute()
	return true
}

// OnTimeout reroutes immediately: an RTO signals a possibly broken path, and
// escaping it within one RTO is FlowBender's failure-recovery story (§3.3.2).
func (fb *FlowBender) OnTimeout() {
	fb.stats.TimeoutReroutes++
	fb.congested = 0
	fb.reroute()
}

func (fb *FlowBender) reroute() {
	fb.stats.Reroutes++
	fb.sinceReroute = 0
	n := int(fb.cfg.NumValues)
	if n <= 1 {
		return
	}
	if fb.cfg.RNG != nil {
		fb.tag = uint32(fb.cfg.RNG.IntnExcept(n, int(fb.tag)))
	} else {
		fb.tag = (fb.tag + 1) % uint32(n)
	}
	if fb.cfg.DesyncN {
		fb.drawRequiredN()
	}
}

// drawRequiredN re-draws the consecutive-RTT requirement among
// {N-1, N, N+1}, clamped to >= 1, so that flows sharing a congested link do
// not all reroute in the same RTT and cascade into a rerouting wave
// (§3.4.2). It is drawn at creation and after every reroute.
func (fb *FlowBender) drawRequiredN() {
	fb.requiredN = fb.cfg.N - 1 + fb.cfg.RNG.Intn(3)
	if fb.requiredN < 1 {
		fb.requiredN = 1
	}
}

// Stats returns a copy of the flow's rerouting counters.
func (fb *FlowBender) Stats() Stats { return fb.stats }
