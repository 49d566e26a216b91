// Package fluid is the flow-level fast path of the simulator: flows are
// rate allocations over paths instead of per-packet events. On every flow
// arrival, finish, pause, or reroute the engine updates a progressive
// max-min fair-share waterfilling over the links the active flows traverse
// (the standard fluid approximation of per-flow TCP throughput), and
// advances every flow's residual by its allocated rate between events. A
// simulation's event count is O(flows), not O(packets) — the fidelity tier
// that turns the paper's 128 servers into 100k+ hosts at flat wall clock.
//
// The rate allocation is maintained incrementally by IncSolver: an event
// only re-waterfills the bottleneck-connected component its touched links
// reach, same-instant arrivals coalesce into one solve through a flush
// event, transfers settle lazily (each one only when its own rate changes
// or a threshold crossing fires), and the single wake event is aimed by an
// indexed min-heap of crossing instants instead of an active-set scan. The
// steady-state event loop performs zero heap allocations.
//
// The model shares everything above the packet layer with the packet
// engine: internal/topo fabric shapes, internal/workload generators,
// internal/stats sketches, and — crucially — the exact ECMP hash draws of
// internal/routing. Path selection reuses routing.PathKeyHash with
// arithmetically derived switch salts, so a flow lands on the same (agg,
// core) pair, hash collisions included, as it would in the packet engine.
//
// What it models beyond rate shares:
//
//   - slow start, as per-RTT doubling transmission budgets with idle gaps
//     when a window is exhausted before its round-trip closes (mice cost
//     zero extra events; an elephant costs a handful);
//   - a streaming window cap (tcp.MaxCwnd/RTT) once slow start clears;
//   - FlowBender rerouting, driven by core.FlowBender.OnEpochF with the
//     marked-ACK fraction estimated from link utilization via an
//     M/M/1-style marking model (host NIC egress excluded: that queue is
//     unbounded and never marks, exactly as in netsim.Host);
//   - RepFlow replication (two full copies under independent hash draws,
//     first finisher wins) and short-flow spraying (one session per path
//     sharing the flow's budget) below the scheme cutoffs;
//   - queueing latency, as M/M/1 waiting terms clamped at the DCTCP
//     threshold (switch ports) or the window backlog (host NICs), folded
//     into each flow's completion tail.
//
// What it deliberately does not model: per-packet ECN marks and DCTCP's
// alpha dynamics, packet loss, retransmission timeouts, reordering, PFC
// back-pressure, and flowlet gaps (Flowlet/FlowDyn degrade to per-flow
// ECMP). The packet engine stays ground truth for those; the FidelityMatrix
// experiment quantifies the residual divergence per scheme.
package fluid

import (
	"math"

	"flowbender/internal/core"
	"flowbender/internal/netsim"
	"flowbender/internal/routing"
	"flowbender/internal/sim"
	"flowbender/internal/tcp"
	"flowbender/internal/topo"
)

// Config parameterizes one fluid simulation.
type Config struct {
	// Params is the fat-tree shape (shared with the packet engine).
	Params topo.Params

	// Spray spreads flows below ShortCutoff evenly over every path between
	// their endpoints (the fluid model of RPS/DeTail/DiffFlow spraying).
	Spray bool
	// Replicate runs flows below ShortCutoff as two full copies under
	// independent hash draws, first finisher wins (RepFlow).
	Replicate bool
	// ShortCutoff is the size boundary for Spray/Replicate, in payload
	// bytes. Use math.MaxInt64 to apply the policy to every flow.
	ShortCutoff int64

	// FlowBender, when non-nil, attaches a rerouting controller to every
	// flow, driven from the utilization-based marking estimate once per
	// global RTT epoch.
	FlowBender *core.Config

	// SolverShards is the maximum number of parallel workers the rate
	// solver may spread a large multi-component re-solve across. 0 or 1
	// keeps every solve serial. Any value produces bit-identical results
	// (see IncSolver); the knob only trades cores for wall clock.
	SolverShards int
}

// Done reports one completed flow to the harness.
type Done struct {
	ID       netsim.FlowID
	Size     int64 // payload bytes
	FCT      sim.Time
	Reroutes int64 // FlowBender reroutes of this flow
	UserTag  int32 // opaque value passed to Arrive (workload pattern kind)
}

// xfer states.
const (
	xRun    uint8 = iota // draining at the solved rate
	xPaused              // slow-start window exhausted, waiting for the RTT edge
)

// xfer is one transfer in flight: a slow-start budget machine over a pool
// of residual wire bits, drained through one solver session per path.
type xfer struct {
	group  int32
	id     netsim.FlowID
	src    int32
	dst    int32
	prefix uint64 // flow-constant ECMP hash prefix
	tag    uint32 // current path tag (FlowBender's V)

	state      uint8
	hasFB      bool
	round      int16
	remain     float64 // wire bits left, exact as of settled
	budget     float64 // wire bits left in the current slow-start round; <0 = streaming
	roundStart sim.Time
	settled    sim.Time // instant remain/budget are exact at (lazy settling)
	rtt        sim.Time // base round-trip of the path class
	rate       float64  // total allocated rate from the last solve
	folded     uint32   // == Sim.foldGen: commitApply has folded this commit's rates

	paths []pathRef // 1 entry normally; one per path when sprayed
	sess  []int32   // solver session per path (empty while paused)
}

// group is the completion unit the harness observes: one per Arrive call,
// covering both copies of a replicated flow.
type group struct {
	id      netsim.FlowID
	size    int64
	userTag int32
	arrive  sim.Time
	members [2]int32
	nMember int8
}

// Sim is one fluid simulation, hosted on a sim.Engine so checkpointing,
// drain loops, and throughput accounting work exactly as for the packet
// engine.
type Sim struct {
	// OnDone receives every completed flow, at its completion instant.
	OnDone func(Done)
	// Completed counts flows delivered so far.
	Completed int64
	// Reroutes accumulates FlowBender reroutes across completed flows.
	Reroutes int64

	eng *sim.Engine
	cfg Config
	net *Net

	xfers  []xfer
	fbs    []core.FlowBender // by-value controller per xfer slot (hasFB gates)
	freeX  []int32
	groups []group
	freeG  []int32
	active []int32 // live xfer indices; swap-remove, deterministic order

	inc   IncSolver
	owner []int32 // solver session -> owning xfer, -1 when free

	heap    etaHeap
	foldGen uint32 // commitApply generation, see xfer.folded

	flushPend bool
	flushFn   func() // prebuilt closures: the steady-state loop never allocates
	wakeFn    func()
	epochFn   func()
	wake      *sim.Event
	wakeAt    sim.Time
	epochEv   *sim.Event
	nFB       int

	rttEpoch sim.Time
}

// Wire sizes in bits, framed as the packet engine frames them.
const (
	segWire     = (tcp.MSS + netsim.HeaderBytes) * 8       // one full segment
	ackWire     = netsim.HeaderBytes * 8                   // one bare ACK
	maxCwndWire = float64(tcp.MaxCwnd) / tcp.MSS * segWire // a full tcp.MaxCwnd window
)

// NewSim builds a fluid simulation on eng.
func NewSim(eng *sim.Engine, cfg Config) *Sim {
	s := &Sim{}
	s.flushFn = s.onFlush
	s.wakeFn = s.onWake
	s.epochFn = s.epochTick
	s.Reset(eng, cfg)
	return s
}

// Reset re-initializes the simulation for a new run on eng (an engine with
// nothing of the previous run pending), keeping what the previous run
// allocated: the link model when the fabric shape is unchanged, the solver's
// arenas, and the transfer, group and heap slots. A reset Sim behaves exactly
// as a new one.
func (s *Sim) Reset(eng *sim.Engine, cfg Config) {
	if s.net == nil || s.net.p != cfg.Params {
		s.net = NewNet(cfg.Params)
	}
	s.OnDone, s.Completed, s.Reroutes = nil, 0, 0
	s.eng, s.cfg = eng, cfg
	s.xfers, s.fbs, s.freeX = s.xfers[:0], s.fbs[:0], s.freeX[:0]
	s.groups, s.freeG = s.groups[:0], s.freeG[:0]
	s.active, s.owner = s.active[:0], s.owner[:0]
	s.heap.es, s.heap.pos = s.heap.es[:0], s.heap.pos[:0]
	s.flushPend, s.wake, s.wakeAt, s.epochEv, s.nFB, s.foldGen = false, nil, 0, nil, 0, 0

	s.rttEpoch = s.pathRTT(maxPathLinks)
	s.inc.Reset(s.net.caps, s.net.marking)
	s.inc.SetShards(cfg.SolverShards)
}

// ActiveFlows returns the number of transfers currently in flight.
func (s *Sim) ActiveFlows() int { return len(s.active) }

// wireBits returns the on-the-wire size of a payload in bits: every MSS of
// payload carries one header, exactly as the packet engine frames it.
func (s *Sim) wireBits(size int64) float64 {
	segs := (size + tcp.MSS - 1) / tcp.MSS
	if segs < 1 {
		segs = 1
	}
	return float64(size+segs*netsim.HeaderBytes) * 8
}

// ssBudget returns the slow-start transmission budget of round r in wire
// bits (the initial window doubling each round-trip).
func (s *Sim) ssBudget(r int16) float64 {
	if r >= 30 {
		return maxCwndWire
	}
	return tcp.InitCwnd * segWire * float64(int64(1)<<uint(r))
}

// pathRTT returns the unloaded round-trip of a path with nl links: host and
// switch delays both ways plus one full segment serializing at every hop
// forward and one ACK back.
func (s *Sim) pathRTT(nl int8) sim.Time {
	ow := s.net.owBase(nl)
	var ser float64
	for i := 0; i < int(nl); i++ {
		ser += (segWire + ackWire) / float64(s.cfg.Params.LinkRateBps)
	}
	return 2*ow + sim.Time(ser*float64(sim.Second))
}

// Arrive starts one flow at the engine's current instant. src and dst are
// host indices (identical to netsim.NodeID for hosts). userTag is echoed in
// the Done record.
//
// Arrivals only stage solver work: a flush event at the same instant (fired
// after every same-instant arrival, by the engine's insertion ordering)
// folds the whole batch into a single incremental solve — an incast of N
// flows costs one re-waterfill, not N.
func (s *Sim) Arrive(id netsim.FlowID, src, dst int32, size int64, userTag int32) {
	gi := s.allocGroup()
	g := &s.groups[gi]
	*g = group{id: id, size: size, userTag: userTag, arrive: s.eng.Now()}

	replicate := s.cfg.Replicate && size < s.cfg.ShortCutoff
	s.addXfer(gi, id, src, dst, size)
	if replicate {
		s.addXfer(gi, tcp.ReplicaID(id), src, dst, size)
	}
	s.scheduleFlush()
	if s.nFB > 0 && s.epochEv == nil {
		s.epochEv = s.eng.Schedule(s.rttEpoch, s.epochFn)
	}
}

// addXfer creates one transfer of a group and activates it.
func (s *Sim) addXfer(gi int32, id netsim.FlowID, src, dst int32, size int64) {
	xi := s.allocXfer()
	x := &s.xfers[xi]
	paths := x.paths[:0]
	sess := x.sess[:0]
	now := s.eng.Now()
	*x = xfer{group: gi, id: id, src: src, dst: dst, state: xRun, roundStart: now, settled: now}

	srcPort, dstPort := tcp.PortsFor(id)
	x.prefix = FlowPrefix(src, dst, srcPort, dstPort)
	if s.cfg.FlowBender != nil {
		s.fbs[xi] = core.Make(*s.cfg.FlowBender)
		x.hasFB = true
		x.tag = s.fbs[xi].PathTag()
		s.nFB++
	}
	if s.cfg.Spray && size < s.cfg.ShortCutoff {
		x.paths = s.net.sprayPaths(paths, src, dst)
	} else {
		var pr pathRef
		s.net.singlePath(&pr, x.prefix, x.tag, src, dst)
		x.paths = append(paths, pr)
	}
	x.rtt = s.pathRTT(x.paths[0].n)
	x.remain = s.wireBits(size)
	x.budget = s.ssBudget(0)
	if x.budget >= maxCwndWire {
		x.budget = -1
	}
	x.sess = sess
	s.addSessions(x, xi)

	g := &s.groups[gi]
	g.members[g.nMember] = xi
	g.nMember++
	s.active = append(s.active, xi)
}

// sessCap returns the per-session rate cap of a transfer: unbounded while
// the slow-start budget gates transmission, the streaming window rate
// (split evenly over a sprayed flow's paths) once slow start is done.
func (s *Sim) sessCap(x *xfer) float64 {
	if x.budget < 0 {
		return maxCwndWire / x.rtt.Seconds() / float64(len(x.paths))
	}
	return math.Inf(1)
}

// addSessions registers one solver session per path of x.
func (s *Sim) addSessions(x *xfer, xi int32) {
	c := s.sessCap(x)
	for pi := range x.paths {
		p := &x.paths[pi]
		sid := s.inc.Add(p.links[:p.n], c)
		x.sess = append(x.sess, sid)
		if int(sid) >= len(s.owner) {
			s.owner = grown(s.owner, int(sid)+1) // sessions are numbered densely
		}
		s.owner[sid] = xi
	}
}

// dropSessions retires all of x's solver sessions (pause or removal).
func (s *Sim) dropSessions(x *xfer) {
	for _, sid := range x.sess {
		s.owner[sid] = -1
		s.inc.Remove(sid)
	}
	x.sess = x.sess[:0]
}

// FlowPrefix returns the flow-constant ECMP hash prefix of a TCP flow
// between two hosts — the same value the packet engine's sender stamps into
// every data packet of the flow (host NodeIDs equal host indices).
func FlowPrefix(src, dst int32, srcPort, dstPort uint16) uint64 {
	return routing.FlowHashPrefix(netsim.NodeID(src), netsim.NodeID(dst), srcPort, dstPort, netsim.ProtoTCP)
}

// settleTo advances one transfer's residuals to now at its current rate.
// Rates are constant between the solver commits that touch a transfer, so
// settling only at those instants (plus the transfer's own crossings) is
// exact — no global per-event settle scan.
func (s *Sim) settleTo(x *xfer, now sim.Time) {
	dt := (now - x.settled).Seconds()
	x.settled = now
	if dt <= 0 || x.state != xRun || x.rate <= 0 {
		return
	}
	used := x.rate * dt
	x.remain -= used
	if x.budget >= 0 {
		// Clamp: a finite budget must not cross into the negative range
		// that encodes "streaming" (slow start done).
		if x.budget -= used; x.budget < 0 {
			x.budget = 0
		}
	}
}

// residual tolerance, in wire bits: ETAs are ceiled to the next nanosecond,
// so a crossing leaves at most rate*1ns ≈ tens of bits of float slack.
const doneEps = 0.5

// scheduleFlush commits the staged solver work — immediately when this is
// the instant's last event, through a same-instant flush event otherwise, so
// an incast batch (or an arrival sharing its instant with a wake) still
// folds into a single re-solve. The peek reads the root of a small heap; the usual
// lone arrival commits inline and schedules nothing.
func (s *Sim) scheduleFlush() {
	if s.flushPend {
		return
	}
	if t, ok := s.eng.NextAt(); ok && t == s.eng.Now() {
		s.flushPend = true
		s.eng.At(t, s.flushFn)
		return
	}
	s.commitApply()
}

func (s *Sim) onFlush() {
	s.flushPend = false
	s.commitApply()
}

// commitApply commits any staged solver work, folds re-solved rates into
// their transfers (settling each to the current instant first), and re-aims
// the wake event at the earliest crossing. A sprayed transfer has one
// re-solved session per path and is folded at the first: the rates are final
// once Commit returns, so its siblings would only sum them again.
func (s *Sim) commitApply() {
	if s.inc.Pending() {
		s.inc.Commit()
		s.foldGen++
		if s.foldGen == 0 { // uint32 wrap: invalidate every fold stamp
			for i := range s.xfers {
				s.xfers[i].folded = 0
			}
			s.foldGen = 1
		}
		now := s.eng.Now()
		for _, sid := range s.inc.Affected() {
			xi := s.owner[sid]
			if xi < 0 {
				continue
			}
			x := &s.xfers[xi]
			if x.folded == s.foldGen {
				continue
			}
			x.folded = s.foldGen
			s.settleTo(x, now)
			var r float64
			for _, id := range x.sess {
				r += s.inc.Rate(id)
			}
			x.rate = r
			s.updateEta(xi, now)
		}
	}
	s.retargetWake()
}

// updateEta re-computes transfer xi's next threshold crossing and fixes its
// heap position.
func (s *Sim) updateEta(xi int32, now sim.Time) {
	x := &s.xfers[xi]
	if x.state != xRun || x.rate <= 0 {
		s.heap.Remove(xi)
		return
	}
	b := x.remain
	if x.budget >= 0 && x.budget < b {
		b = x.budget
	}
	var eta sim.Time
	if b <= doneEps {
		eta = now + 1
	} else {
		eta = x.settled + sim.Time(math.Ceil(b/x.rate*float64(sim.Second)))
		if eta <= now {
			eta = now + 1
		}
	}
	s.heap.Set(xi, eta)
}

// drainDue processes every transfer whose crossing instant has arrived:
// completions (which can retire sibling transfers) and slow-start round
// edges. Solver work is staged; the caller commits.
func (s *Sim) drainDue() {
	now := s.eng.Now()
	for s.heap.Len() > 0 {
		xi, eta := s.heap.Min()
		if eta > now {
			break
		}
		x := &s.xfers[xi]
		if x.state == xPaused {
			// The round-trip edge arrived: reopen the window. The new
			// sessions solve in the caller's commit, whose updateEta files
			// the transfer back into the heap at its real crossing.
			x.settled = now
			x.state = xRun
			s.advanceRound(x)
			s.addSessions(x, xi)
			s.heap.Remove(xi)
			continue
		}
		s.settleTo(x, now)
		if x.remain <= doneEps {
			s.finish(xi)
			continue
		}
		if x.budget >= 0 && x.budget <= doneEps {
			// Window exhausted. If the round-trip edge already passed, the
			// ACKs are back: open the next round in place. Otherwise idle
			// until the edge, parked in the heap at the resume instant — the
			// wake event covers slow-start edges, so a pause/resume cycle
			// costs no engine event of its own.
			if now >= x.roundStart+x.rtt {
				s.advanceRound(x)
				if x.budget < 0 {
					// Entered streaming: the session caps change.
					c := s.sessCap(x)
					for _, sid := range x.sess {
						s.inc.SetCap(sid, c)
					}
				}
				s.updateEta(xi, now)
			} else {
				x.state = xPaused
				s.dropSessions(x)
				s.heap.Set(xi, x.roundStart+x.rtt)
			}
			continue
		}
		// Float slack left the crossing short; re-aim strictly past now.
		s.updateEta(xi, now)
	}
}

// advanceRound opens transfer x's next slow-start round at the current
// instant, switching to streaming mode once the window reaches MaxCwnd.
func (s *Sim) advanceRound(x *xfer) {
	x.round++
	b := s.ssBudget(x.round)
	if b >= maxCwndWire {
		x.budget = -1
	} else {
		x.budget = b
	}
	x.roundStart = s.eng.Now()
}

// finish retires the group of transfer xi: the first finisher defines the
// flow's completion (RepFlow's first-copy-wins), every member is removed.
// The completion tail uses the standing-queue marks of the last solve, as
// every finisher at this instant shares one pre-commit queue snapshot.
func (s *Sim) finish(xi int32) {
	x := &s.xfers[xi]
	gi := x.group
	g := &s.groups[gi]
	var reroutes int64
	for m := int8(0); m < g.nMember; m++ {
		if mi := g.members[m]; s.xfers[mi].hasFB {
			reroutes += s.fbs[mi].Stats().Reroutes
		}
	}
	fct := s.eng.Now() + s.tail(x) - g.arrive
	s.Completed++
	s.Reroutes += reroutes
	if s.OnDone != nil {
		s.OnDone(Done{ID: g.id, Size: g.size, FCT: fct, Reroutes: reroutes, UserTag: g.userTag})
	}
	for m := int8(0); m < g.nMember; m++ {
		s.removeXfer(g.members[m])
	}
	s.freeG = append(s.freeG, gi)
}

// removeXfer deactivates one transfer and recycles its slot.
func (s *Sim) removeXfer(xi int32) {
	x := &s.xfers[xi]
	if x.hasFB {
		s.nFB--
		x.hasFB = false
	}
	s.dropSessions(x)
	s.heap.Remove(xi)
	for i, a := range s.active {
		if a == xi {
			s.active[i] = s.active[len(s.active)-1]
			s.active = s.active[:len(s.active)-1]
			break
		}
	}
	s.freeX = append(s.freeX, xi)
}

// retargetWake re-aims the single wake event at the earliest crossing.
func (s *Sim) retargetWake() {
	if s.heap.Len() == 0 {
		if s.wake != nil {
			s.eng.Cancel(s.wake)
			s.wake = nil
		}
		return
	}
	_, best := s.heap.Min()
	if s.wake != nil {
		if best >= s.wakeAt {
			// The crossing moved later (or not at all): keep the armed wake.
			// Firing early is a cheap no-op that re-aims, cheaper than the
			// cancel-and-reschedule churn every arrival commit would pay.
			return
		}
		s.eng.Cancel(s.wake)
	}
	s.wakeAt = best
	s.wake = s.eng.At(best, s.wakeFn)
}

func (s *Sim) onWake() {
	s.wake = nil
	s.drainDue()
	s.commitApply()
}

// epochTick closes one global RTT epoch for every FlowBender-controlled
// transfer: the marked-ACK fraction is estimated from the current path
// utilization and fed to the controller; reroutes re-draw the path with the
// new tag, exactly as the packet transport re-stamps V. The whole epoch's
// reroutes batch into one solver commit.
func (s *Sim) epochTick() {
	s.epochEv = nil
	if s.nFB == 0 {
		return
	}
	s.drainDue()
	for _, xi := range s.active {
		x := &s.xfers[xi]
		if !x.hasFB || x.state != xRun {
			continue
		}
		if s.fbs[xi].OnEpochF(s.pathF(x)) {
			x.tag = s.fbs[xi].PathTag()
			p := &x.paths[0]
			s.net.singlePath(p, x.prefix, x.tag, x.src, x.dst)
			s.inc.SetLinks(x.sess[0], p.links[:p.n])
		}
	}
	s.commitApply()
	if s.nFB > 0 {
		s.epochEv = s.eng.Schedule(s.rttEpoch, s.epochFn)
	}
}

// pathF estimates FlowBender's congestion signal — the fraction of the
// epoch's ACKs carrying ECN marks — over a transfer's current path: 1 when
// the path crosses a standing queue (DCTCP marks nearly every packet
// passing an occupancy pinned at K, far above any reasonable threshold T),
// else 0. The fluid model has no transient sub-threshold marking; the
// fidelity harness quantifies what that smoothing costs. The standing-queue
// marks are maintained incrementally by the solver's first-saturated-link
// rule (see IncSolver.firstSatMark), which distinguishes true contention
// from coincidental full utilization.
func (s *Sim) pathF(x *xfer) float64 {
	p := &x.paths[0]
	for i := int8(0); i < p.n; i++ {
		if s.inc.Queued(p.links[i]) {
			return 1
		}
	}
	return 0
}

// tail returns the latency between a transfer's last bit leaving the sender
// and its delivery: the constant one-way base, per-hop store-and-forward of
// the final packet past the first link (whose serialization the drain rate
// already covers), and ~K/2 of waiting at every standing queue on the path
// — DCTCP's marking makes the occupancy oscillate between the threshold and
// the post-backoff trough, so the time-average a transiting packet waits
// behind is about half of K, not K itself. A sprayed transfer completes
// when its last packet lands, and that packet rides whichever path is
// slowest, so the tail is the worst path's, not the first's (this is the
// fluid image of the reordering penalty sprayed short flows pay in the
// packet engine).
func (s *Sim) tail(x *xfer) sim.Time {
	last := s.lastPktBits(x)
	kBits := float64(8*s.cfg.Params.MarkK) / 2
	var worst sim.Time
	for pi := range x.paths {
		p := &x.paths[pi]
		sec := 0.0
		for i := int8(1); i < p.n; i++ {
			l := p.links[i]
			sec += last / s.net.caps[l]
			if s.inc.Queued(l) {
				sec += kBits / s.net.caps[l]
			}
		}
		t := s.net.owBase(p.n) + sim.Time(sec*float64(sim.Second))
		if t > worst {
			worst = t
		}
	}
	return worst
}

// lastPktBits returns the wire size of a transfer's final packet.
func (s *Sim) lastPktBits(x *xfer) float64 {
	g := &s.groups[x.group]
	rem := g.size % tcp.MSS
	if rem == 0 {
		rem = tcp.MSS
	}
	if g.size < rem {
		rem = g.size
	}
	return float64(rem+netsim.HeaderBytes) * 8
}

func (s *Sim) allocXfer() int32 {
	if n := len(s.freeX); n > 0 {
		xi := s.freeX[n-1]
		s.freeX = s.freeX[:n-1]
		return xi
	}
	// A slot within capacity is a previous run's (see Reset): reslice rather
	// than append, so addXfer finds its path and session slices to reuse.
	if n := len(s.xfers); n < cap(s.xfers) {
		s.xfers = s.xfers[:n+1]
	} else {
		s.xfers = append(s.xfers, xfer{})
	}
	s.fbs = append(s.fbs, core.FlowBender{})
	xi := int32(len(s.xfers) - 1)
	s.heap.ensure(len(s.xfers))
	return xi
}

func (s *Sim) allocGroup() int32 {
	if n := len(s.freeG); n > 0 {
		gi := s.freeG[n-1]
		s.freeG = s.freeG[:n-1]
		return gi
	}
	s.groups = append(s.groups, group{})
	return int32(len(s.groups) - 1)
}
