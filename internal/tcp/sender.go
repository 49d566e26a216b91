package tcp

import (
	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
)

// Sender is the transmitting endpoint of a flow: NewReno loss recovery with
// DCTCP congestion control, optionally steered by a FlowBender controller.
type Sender struct {
	eng  *sim.Engine
	cfg  Config
	flow *Flow
	fb   *core.FlowBender

	srcPort, dstPort uint16
	// hashPrefix is the flow-constant selector hash state stamped into every
	// emitted packet (see routing.FlowHashPrefix).
	hashPrefix uint64

	// Window state (bytes).
	cwnd     float64
	ssthresh float64
	sndUna   int64
	sndNxt   int64
	maxSent  int64 // highest byte ever transmitted (retransmission detection)

	// Loss recovery (SACK-based fast recovery, RFC 6675 in spirit).
	dupAcks      int
	dynDupThresh int // adaptive reordering window in segments (Linux-style)
	inRecovery   bool
	recover      int64
	retxNext     int64       // next candidate byte for hole retransmission
	sacked       intervalSet // receiver-reported blocks above sndUna

	// Spurious-retransmission undo (RFC 2883 DSACK, Linux-style): when every
	// retransmission of a recovery episode turns out to be a duplicate, the
	// window reduction is reverted. Reordering caused by a FlowBender path
	// change routinely trips fast retransmit; without undo each reroute
	// would permanently halve the window.
	undoValid    bool
	undoCwnd     float64
	undoSsthresh float64
	retxEpisode  int64
	dsackEpisode int64

	// RTT estimation / RTO (RFC 6298 shape).
	srtt    sim.Time
	rttvar  sim.Time
	rto     sim.Time
	backoff int
	timer   *sim.Event
	// Prebuilt timer callback, so (re)arming the RTO on every ACK does not
	// allocate a closure.
	timeoutFn func()

	// DCTCP state. Alpha is estimated over BYTES acknowledged per RTT
	// epoch; the receiver ACKs every data packet with that packet's CE bit,
	// so each ACK's ECE applies to every byte it newly covers.
	alpha       float64
	ackedBytes  int64 // bytes acked this RTT epoch
	markedBytes int64 // of which were acked with ECE set
	epochEnd    int64 // sequence closing the current epoch
	cwrEnd      int64 // one-reduction-per-window guard

	// spray marks every emitted packet for per-packet selection (short
	// flows under Config.SprayShortCutoff; see routing.DiffFlow).
	spray bool
	// aborted permanently silences the sender (the losing sub-flow of a
	// replicated pair); see Abort.
	aborted bool

	// Counters.
	Retransmits  int64
	FastRetx     int64
	Timeouts     int64
	AcksReceived int64
	SpuriousUndo int64

	// Outage/recovery tracking (§3.3.2's time-to-recover): outageStart is
	// the virtual time of the first RTO of the current outage episode, or -1
	// when the flow is healthy. The episode closes on the next cumulative
	// ACK advance.
	outageStart sim.Time
	recovery    RecoveryStats
}

// RecoveryStats aggregates a flow's outage episodes: an episode opens at the
// first RTO after healthy operation and closes when the next cumulative ACK
// arrives (data flowing again). The duration is the paper's §3.3.2
// time-to-recover — how long the flow was stalled before rerouting (or the
// fabric healing) let it make progress again.
type RecoveryStats struct {
	// Count is the number of completed outage episodes.
	Count int64
	// Total is the summed duration of completed episodes.
	Total sim.Time
	// Max is the longest completed episode.
	Max sim.Time
}

func newSender(eng *sim.Engine, cfg Config, flow *Flow, srcPort, dstPort uint16) *Sender {
	s := &Sender{
		eng:     eng,
		cfg:     cfg,
		flow:    flow,
		srcPort: srcPort,
		dstPort: dstPort,
	}
	if cfg.FlowBender != nil {
		s.fb = core.New(*cfg.FlowBender)
	}
	s.hashPrefix = routing.FlowHashPrefix(flow.Src.ID(), flow.Dst.ID(), srcPort, dstPort, netsim.ProtoTCP)
	s.spray = cfg.SprayShortCutoff > 0 && flow.Size < cfg.SprayShortCutoff
	s.cwnd = InitCwnd * MSS
	s.ssthresh = 1 << 40 // effectively unbounded until first loss signal
	s.rto = RTOMin
	s.dynDupThresh = DupThresh
	s.outageStart = -1
	s.timeoutFn = s.onTimeout
	return s
}

// RecoveryStats returns the flow's completed outage episodes.
func (s *Sender) RecoveryStats() RecoveryStats { return s.recovery }

// InOutage reports whether the sender is currently inside an outage episode
// (an RTO fired and no ACK has advanced since).
func (s *Sender) InOutage() bool { return s.outageStart >= 0 }

func (s *Sender) start() {
	s.epochEnd = 0
	s.trySend()
}

// PathTag returns the current FlowBender tag (0 without FlowBender).
func (s *Sender) PathTag() uint32 {
	if s.fb == nil {
		return 0
	}
	return s.fb.PathTag()
}

// trySend emits new segments while the window allows. When re-walking
// previously sent data (after an RTO), SACKed ranges are skipped.
func (s *Sender) trySend() {
	if s.aborted {
		return
	}
	if s.cwnd > MaxCwnd {
		s.cwnd = MaxCwnd
	}
	for s.sndNxt < s.flow.Size && float64(s.sndNxt-s.sndUna) < s.cwnd {
		if s.sndNxt < s.maxSent {
			s.sndNxt = s.sacked.nextUncovered(s.sndNxt)
			if s.sndNxt >= s.flow.Size {
				break
			}
		}
		n := int64(MSS)
		if rem := s.flow.Size - s.sndNxt; rem < n {
			n = rem
		}
		s.emit(s.sndNxt, int(n), s.sndNxt < s.maxSent)
		s.sndNxt += n
		if s.sndNxt > s.maxSent {
			s.maxSent = s.sndNxt
		}
	}
	s.armTimer()
}

func (s *Sender) emit(seq int64, payload int, retx bool) {
	pkt := s.flow.Src.NewPacket()
	pkt.Flow = s.flow.ID
	pkt.Src = s.flow.Src.ID()
	pkt.Dst = s.flow.Dst.ID()
	pkt.SrcPort = s.srcPort
	pkt.DstPort = s.dstPort
	pkt.Proto = netsim.ProtoTCP
	pkt.Kind = netsim.KindData
	pkt.HashPrefix = s.hashPrefix
	pkt.HashPrefixOK = true
	pkt.PathTag = s.PathTag()
	pkt.Spray = s.spray
	pkt.Seq = seq
	pkt.Payload = payload
	pkt.Size = payload + netsim.HeaderBytes
	pkt.ECT = true
	pkt.Retx = retx
	pkt.SentAt = s.eng.Now()
	pkt.EchoTS = -1
	if retx {
		s.Retransmits++
	}
	s.flow.Src.Send(pkt)
}

// Deliver implements netsim.Handler for the sending host (ACK arrival).
func (s *Sender) Deliver(pkt *netsim.Packet) {
	if s.aborted {
		return
	}
	if pkt.Kind != netsim.KindAck {
		return
	}
	s.AcksReceived++
	now := s.eng.Now()

	// RTT sample (Karn-filtered by the receiver's echo suppression).
	if pkt.EchoTS >= 0 {
		s.sampleRTT(now - pkt.EchoTS)
	}

	// SACK scoreboard update.
	for _, b := range pkt.Sacks {
		if b.End > s.sndUna {
			s.sacked.add(b.Start, b.End)
		}
	}
	if pkt.DSACK {
		s.dsackEpisode++
		s.maybeUndo()
	}
	// Adaptive reordering window (Linux tcp_update_reordering): when the
	// receiver observes an original segment arriving ReorderDist bytes below
	// the highest sequence seen, the path reorders at least that deeply, so
	// duplicate ACKs within that depth must not trigger fast retransmit.
	// This is why the paper saw no difference between a reordering threshold
	// of 3 and 30 on its Linux testbed: the stack adapts either way.
	if pkt.ReorderDist > 0 {
		nd := int(pkt.ReorderDist/MSS) + 1
		const maxReorder = 300 // Linux's cap
		if nd > maxReorder {
			nd = maxReorder
		}
		if nd > s.dynDupThresh {
			s.dynDupThresh = nd
		}
	}

	// FlowBender accounting. ACKs echo the path tag of the data packet that
	// triggered them, so feedback generated on a path the flow has already
	// left is excluded: right after a reroute one RTT of stale marks is
	// still in flight, and counting it against the new path would trigger
	// an immediate (futile) second reroute.
	if s.fb != nil && pkt.PathTag == s.fb.PathTag() {
		s.fb.OnAck(pkt.ECE)
	}

	ack := pkt.Seq
	switch {
	case ack > s.sndUna:
		// DCTCP byte accounting: the ACK's ECE covers every newly acked byte.
		newly := ack - s.sndUna
		s.ackedBytes += newly
		if pkt.ECE {
			s.markedBytes += newly
		}
		s.onNewAck(ack, pkt.ECE)
	case ack == s.sndUna && s.sndUna < s.sndNxt:
		s.onDupAck()
	}

	// Close the RTT epoch once an epoch's worth of data is acknowledged.
	if ack >= s.epochEnd {
		s.closeEpoch()
	}

	// ECN reaction: at most one window reduction per RTT.
	if pkt.ECE && ack > s.cwrEnd && !s.inRecovery {
		s.ecnCut()
	}

	s.trySend()

	if s.sndUna >= s.flow.Size && s.flow.SendDone < 0 {
		s.flow.SendDone = now
		s.cancelTimer()
		s.scheduleTeardown()
	}
}

// scheduleTeardown releases both endpoints' dispatch slots after a quiet
// period of 2x RTOMax. The flow is complete (every byte acknowledged), so
// the only traffic it can still receive is strays already in flight —
// duplicate ACKs and spurious retransmissions, whose lifetime is bounded by
// one path traversal, far below RTOMax. Waiting out the quiet period before
// unregistering therefore changes no observable behaviour (a stray landing
// before teardown still updates the endpoints exactly as it always did),
// while long churny runs get their handler slots back instead of growing
// host dispatch tables without bound.
func (s *Sender) scheduleTeardown() {
	s.eng.Schedule(2*RTOMax, s.teardown)
}

// Abort permanently silences the sender: RepFlow tears the losing sub-flow
// down with it once its sibling has delivered the payload. The RTO timer is
// canceled, no further segments are emitted, arriving strays are ignored,
// and the handler slots are released through the same 2x RTOMax quiet
// period completed flows use — in-flight traffic of the dead sub-flow has a
// lifetime bounded by one path traversal, far below that. Idempotent.
func (s *Sender) Abort() {
	if s.aborted {
		return
	}
	s.aborted = true
	s.cancelTimer()
	s.scheduleTeardown()
}

// Aborted reports whether Abort has silenced this sender.
func (s *Sender) Aborted() bool { return s.aborted }

func (s *Sender) teardown() {
	s.flow.Src.Unregister(s.flow.ID)
	if s.flow.Src.Engine() == s.flow.Dst.Engine() {
		s.flow.Dst.Unregister(s.flow.ID)
	}
	// Cross-shard flows release the destination slot from the receiver's
	// own teardown (see Receiver.Deliver), keeping every handler-table
	// mutation on its owning shard.
}

func (s *Sender) onNewAck(ack int64, _ bool) {
	newly := ack - s.sndUna
	s.sndUna = ack
	s.sacked.consume(s.sndUna)
	s.backoff = 0
	if s.outageStart >= 0 {
		// Data is flowing again: close the outage episode.
		d := s.eng.Now() - s.outageStart
		s.recovery.Count++
		s.recovery.Total += d
		if d > s.recovery.Max {
			s.recovery.Max = d
		}
		s.outageStart = -1
	}

	if s.inRecovery {
		if ack >= s.recover {
			// Full recovery: deflate to ssthresh.
			s.inRecovery = false
			s.dupAcks = 0
			s.cwnd = s.ssthresh
		} else {
			// Partial ACK: retransmit the next SACK hole, deflate by the
			// amount acked, and stay in recovery. The SACK scoreboard keeps
			// this from devolving into NewReno's one-retransmission-per-RTT
			// whole-window resend after reordering-induced (spurious) fast
			// retransmits — the behaviour of the Linux stacks the paper
			// deployed on.
			if s.retxNext < s.sndUna {
				s.retxNext = s.sndUna
			}
			s.retransmitHole()
			s.cwnd -= float64(newly)
			s.cwnd += MSS
			if s.cwnd < MSS {
				s.cwnd = MSS
			}
		}
		s.armTimer()
		return
	}

	s.dupAcks = 0
	if s.cwnd < s.ssthresh {
		// Slow start with Appropriate Byte Counting (RFC 3465, L=2): grow
		// by the bytes acknowledged, capped at 2 MSS per ACK, so lost ACKs
		// do not slow the exponential ramp.
		inc := float64(newly)
		if inc > 2*MSS {
			inc = 2 * MSS
		}
		s.cwnd += inc
	} else {
		// Congestion avoidance: MSS^2/cwnd per ACK.
		s.cwnd += MSS * MSS / s.cwnd
	}
	s.armTimer()
}

func (s *Sender) onDupAck() {
	if s.cfg.DisableFastRetx {
		return
	}
	if s.inRecovery {
		// Window inflation while the holes drain; newly revealed holes
		// (from fresh SACK blocks) are retransmitted as they appear.
		s.cwnd += MSS
		s.retransmitHole()
		return
	}
	s.dupAcks++
	if s.dupAcks < s.dynDupThresh {
		return
	}
	// Fast retransmit + fast recovery.
	s.FastRetx++
	s.undoValid = true
	s.undoCwnd = s.cwnd
	s.undoSsthresh = s.ssthresh
	s.retxEpisode, s.dsackEpisode = 0, 0
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2*MSS {
		s.ssthresh = 2 * MSS
	}
	s.recover = s.sndNxt
	s.inRecovery = true
	s.retxNext = s.sndUna
	s.retransmitHole()
	s.cwnd = s.ssthresh + float64(s.dynDupThresh)*MSS
	s.armTimer()
}

// retransmitHole resends the first un-SACKed segment at or above retxNext
// that is deemed lost (RFC 6675's IsLost: at least DupThresh segments' worth
// of SACKed bytes above it — a merely un-SACKed in-flight segment is not
// lost). retxNext advances past each retransmission so every hole is resent
// once per recovery episode.
func (s *Sender) retransmitHole() {
	seq := s.retxNext
	if seq < s.sndUna {
		seq = s.sndUna
	}
	seq = s.sacked.nextUncovered(seq)
	if seq >= s.recover || seq >= s.flow.Size {
		return
	}
	if s.sacked.bytesAbove(seq) < int64(s.dynDupThresh)*MSS {
		return
	}
	n := int64(MSS)
	if rem := s.flow.Size - seq; rem < n {
		n = rem
	}
	s.emit(seq, int(n), true)
	s.retxEpisode++
	s.retxNext = seq + n
}

// maybeUndo reverts a spurious window reduction once DSACKs have confirmed
// every retransmission of the episode was unnecessary.
func (s *Sender) maybeUndo() {
	if !s.undoValid || s.dsackEpisode < s.retxEpisode || s.retxEpisode == 0 {
		return
	}
	s.undoValid = false
	s.SpuriousUndo++
	s.inRecovery = false
	s.dupAcks = 0
	if s.undoCwnd > s.cwnd {
		s.cwnd = s.undoCwnd
	}
	if s.undoSsthresh > s.ssthresh {
		s.ssthresh = s.undoSsthresh
	}
}

// ecnCut applies DCTCP's proportional reduction, once per window of data.
func (s *Sender) ecnCut() {
	s.cwrEnd = s.sndNxt
	s.cwnd *= 1 - s.alpha/2
	if s.cwnd < MSS {
		s.cwnd = MSS
	}
	s.ssthresh = s.cwnd
}

// closeEpoch ends an RTT epoch: updates DCTCP's alpha from the epoch's
// marked fraction and lets FlowBender decide whether to reroute.
func (s *Sender) closeEpoch() {
	if s.ackedBytes > 0 {
		f := float64(s.markedBytes) / float64(s.ackedBytes)
		s.alpha = (1-DCTCPg)*s.alpha + DCTCPg*f
	}
	if s.fb != nil {
		s.fb.OnRTTEnd()
	}
	s.ackedBytes, s.markedBytes = 0, 0
	s.epochEnd = s.sndNxt
}

func (s *Sender) sampleRTT(rtt sim.Time) {
	if rtt <= 0 {
		rtt = 1
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		d := s.srtt - rtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < RTOMin {
		s.rto = RTOMin
	}
	if s.rto > RTOMax {
		s.rto = RTOMax
	}
}

func (s *Sender) armTimer() {
	if s.sndUna >= s.flow.Size || s.sndUna >= s.sndNxt {
		s.cancelTimer()
		return
	}
	s.cancelTimer()
	d := s.rto << s.backoff
	if d > RTOMax {
		d = RTOMax
	}
	s.timer = s.eng.Schedule(d, s.timeoutFn)
}

func (s *Sender) cancelTimer() {
	if s.timer != nil {
		s.eng.Cancel(s.timer)
		s.timer = nil
	}
}

func (s *Sender) onTimeout() {
	s.timer = nil
	if s.sndUna >= s.flow.Size || s.aborted {
		return
	}
	s.Timeouts++
	if s.outageStart < 0 {
		s.outageStart = s.eng.Now()
	}
	s.undoValid = false
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2*MSS {
		s.ssthresh = 2 * MSS
	}
	s.cwnd = MSS
	s.sndNxt = s.sndUna
	s.dupAcks = 0
	s.inRecovery = false
	if s.backoff < 16 {
		s.backoff++
	}
	// FlowBender's failure story (§3.3.2): an RTO immediately re-draws V so
	// the retransmission probes a different path — this is what recovers
	// from link failures within ~one RTO.
	if s.fb != nil {
		s.fb.OnTimeout()
	}
	// Reset epoch accounting: the path likely changed.
	s.ackedBytes, s.markedBytes = 0, 0
	s.epochEnd = s.sndNxt
	s.trySend()
}
