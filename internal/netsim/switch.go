package netsim

import (
	"fmt"

	"flowbender/internal/sim"
)

// Selector picks an egress port for a packet among the eligible equal-cost
// ports of a switch. Implementations live in internal/routing: hash-based
// ECMP (also used by FlowBender), per-packet random (RPS), and least-queued
// (DeTail's packet-level adaptive routing).
type Selector interface {
	// Select returns one element of eligible (len(eligible) >= 2).
	Select(sw *Switch, pkt *Packet, eligible []int32) int32
}

// CacheableSelector marks Selector implementations whose choice is a pure
// function of (switch identity, destination, flow-constant header fields,
// PathTag) — true for static hash selectors like ECMP, never for selectors
// that consult an RNG (RPS) or live queue state (DeTail). Switches memoize
// the choices of a cacheable selector in a small per-switch direct-mapped
// cache keyed by the exact (HashPrefix, Dst, PathTag) triple, so
// steady-state packets of a flow skip hashing entirely. SetSelector and
// SetRoutes invalidate the cache by bumping its generation, which is
// sufficient: fault injection changes links and rates (through the Port's
// setters) but the forwarding table and selector only ever change through
// those two.
type CacheableSelector interface {
	Selector
	// Cacheable reports whether Select's choices may be memoized.
	Cacheable() bool
}

// selCacheSlots is the size of each switch's selector memo cache. It must be
// a power of two; 1024 exact-keyed slots comfortably cover the concurrent
// (flow, tag) working set of one switch in the paper's workloads.
const selCacheSlots = 1024

// selSlot is one direct-mapped selector-memo entry. The full key is stored
// (not a fingerprint): a hit is only declared on exact (prefix, dst, tag)
// equality, which is what makes the memo provably bit-identical to calling
// the selector.
type selSlot struct {
	prefix uint64
	dst    NodeID
	tag    uint32
	gen    uint32
	port   int32
}

// PFCConfig enables Priority Flow Control on a switch: when the per-input
// ingress accounting exceeds Pause bytes the upstream transmitter is paused,
// and it is resumed once the accounting drains below Unpause bytes. With PFC
// enabled the egress queues are lossless (unbounded), matching DeTail's
// requirement.
type PFCConfig struct {
	Pause   int
	Unpause int
}

// SwitchConfig describes a switch's per-port queues and forwarding pipeline.
type SwitchConfig struct {
	// QueueCap is the per-egress-port drop-tail capacity in bytes
	// (ignored — lossless — when PFC is set).
	QueueCap int
	// SharedBuffer, when > 0, additionally bounds the switch-wide buffered
	// bytes across all egress ports — the shared-memory architecture of the
	// paper's testbed switches (2 MB shared, §4.3). A packet is dropped
	// when either its port queue or the shared pool is full.
	SharedBuffer int
	// MarkK is the DCTCP ECN marking threshold in bytes (0 disables).
	MarkK int
	// FwdDelay is the per-packet forwarding latency through the switch.
	FwdDelay sim.Time
	// PFC, when non-nil, makes the switch lossless with pause/unpause
	// thresholds on the per-input ingress accounting.
	PFC *PFCConfig
}

// Switch is an output-queued switch (optionally combined input–output queued
// via PFC ingress accounting, as the paper's DeTail setup requires).
type Switch struct {
	eng *sim.Engine
	id  NodeID
	// keyed: every packet crosses this switch through a pipeline event filed
	// under a real ordering tag — a positive forwarding delay, and an
	// identity orderTag can encode (it degrades all-or-nothing in the device
	// ID, and from port 16 up). Port.handOff needs it on both ends of a link.
	keyed bool
	cfg   SwitchConfig

	// Ports are the egress ports, indexed by port number.
	Ports []*Port
	// upstream[i] is the egress port on the neighbouring device that feeds
	// our input port i (needed to deliver PFC pause frames).
	upstream []*Port

	// table maps destination host NodeID -> eligible egress ports.
	table [][]int32
	sel   Selector
	pool  *PacketPool

	// Selector memo cache: consulted while selCached (the installed selector
	// is cacheable), allocated by the first selection that consults it — a
	// switch with one eligible port per destination never does — and kept
	// from then on, whatever is installed next. A slot is valid only while
	// its gen equals selGen; SetSelector, SetRoutes and Reset bump selGen,
	// invalidating every slot in O(1).
	selCache  []selSlot
	selCached bool
	selGen    uint32

	// selScratch is opaque per-switch storage for stateful selectors (the
	// flowlet table of routing.Flowlet/FlowDyn), kept across SetSelector and
	// Reset so that its memory outlives the install that made it. selOwned
	// says the installed selector stored it; SetSelector and Reset clear it,
	// and the next owner re-initialises what an earlier install left.
	selScratch any
	selOwned   bool

	// PFC ingress accounting.
	ingressBytes []int
	pausedUp     []bool

	// Shared-buffer accounting (bytes buffered across all egress ports,
	// including the packet currently serializing).
	buffered int64

	// Counters.
	RxPackets   int64
	NoRoute     int64
	DropsNoBuf  int64
	PauseEvents int64
}

// NewSwitch creates a switch with nPorts egress ports all at rateBps.
func NewSwitch(eng *sim.Engine, id NodeID, nPorts int, rateBps int64, cfg SwitchConfig) *Switch {
	s := &Switch{
		eng:          eng,
		id:           id,
		Ports:        make([]*Port, nPorts),
		upstream:     make([]*Port, nPorts),
		ingressBytes: make([]int, nPorts),
		pausedUp:     make([]bool, nPorts),
	}
	for i := range s.Ports {
		s.Ports[i] = newPort(eng, orderTag(tagKindTx, id, i), nil)
	}
	s.Reset(rateBps, cfg)
	return s
}

// Reset is the rest of NewSwitch, and puts a switch that has carried traffic
// back into the state NewSwitch leaves: every port at rateBps with cfg's
// queue bounds and an empty queue and ledger, links up, counters and buffer
// accounting zero, no selector (its memo invalidated, its scratch disowned).
// It assigns the whole value, as Port.init does, so nothing has to be
// remembered here when a field is added. What it keeps is what the fabric's
// builder gave once: engine, ID, ports and their wiring, the forwarding
// table, the pool, and the arrays, memo and scratch. Events of the previous
// run that still name the switch or its packets must be gone from the engine
// (Engine.Reset).
func (s *Switch) Reset(rateBps int64, cfg SwitchConfig) {
	clear(s.ingressBytes)
	clear(s.pausedUp)
	*s = Switch{
		eng: s.eng, id: s.id, Ports: s.Ports, upstream: s.upstream, table: s.table, pool: s.pool,
		ingressBytes: s.ingressBytes, pausedUp: s.pausedUp,
		selCache: s.selCache, selGen: s.selGen + 1, selScratch: s.selScratch,

		cfg:   cfg,
		keyed: cfg.FwdDelay > 0 && orderTag(tagKindTx, s.id, len(s.Ports)-1) != sim.TagNone,
	}
	queueCap := 0
	if cfg.PFC == nil {
		queueCap = cfg.QueueCap
	}
	var onSent sentHook
	if cfg.PFC != nil || cfg.SharedBuffer > 0 {
		onSent = s
	}
	for _, p := range s.Ports {
		p.init(rateBps, s.keyed, queueCap, cfg.MarkK, onSent)
	}
}

// UsePool makes the switch (and its egress ports) recycle packets dropped
// inside the fabric into pl.
func (s *Switch) UsePool(pl *PacketPool) {
	s.pool = pl
	for _, p := range s.Ports {
		p.pool = pl
	}
}

// onPortSent releases per-packet buffer accounting when an egress port
// finishes serializing a packet (the switch is its hooked ports' sentHook).
func (s *Switch) onPortSent(pkt *Packet) {
	if s.cfg.SharedBuffer > 0 {
		s.buffered -= int64(pkt.Size)
	}
	if s.cfg.PFC != nil {
		s.releaseIngress(pkt)
	}
}

// ID returns the switch's node identifier.
func (s *Switch) ID() NodeID { return s.id }

// SetSelector installs the multipath port selector, enabling the per-switch
// choice memo when the selector declares itself cacheable (and invalidating
// any previously memoized choices either way).
func (s *Switch) SetSelector(sel Selector) {
	s.sel = sel
	s.selGen++
	s.selOwned = false
	cs, ok := sel.(CacheableSelector)
	s.selCached = ok && cs.Cacheable()
}

// Now returns the owning engine's clock. Stateful selectors (flowlet
// switching) read it from inside Select to measure inter-packet idle gaps.
func (s *Switch) Now() sim.Time { return s.eng.Now() }

// SelectorScratch returns the opaque per-switch selector state (nil until a
// selector stores something) and whether the installed selector stored it.
// State an earlier install left is kept for its memory; owned is false
// until the installed selector stores it again.
func (s *Switch) SelectorScratch() (v any, owned bool) { return s.selScratch, s.selOwned }

// SetSelectorScratch installs opaque per-switch selector state, owned by the
// installed selector until the next SetSelector or Reset. State from an
// earlier install is never observed, because its owner re-initialises it
// before storing it again.
func (s *Switch) SetSelectorScratch(v any) { s.selScratch, s.selOwned = v, true }

// SetRoutes installs the forwarding table: routes[dst] lists the eligible
// egress ports toward host dst. Installing routes invalidates the selector
// memo cache — a memoized choice is only valid against the eligible list it
// was computed from.
func (s *Switch) SetRoutes(routes [][]int32) {
	s.table = routes
	s.selGen++
}

// Routes returns the installed forwarding table (for tests and tools).
func (s *Switch) Routes() [][]int32 { return s.table }

// QueueBytes returns the egress occupancy of the given port, used by
// adaptive selectors such as DeTail from inside Select. A packet whose
// transmission starts on the very nanosecond of the call has left the queue
// exactly when the completion before it sorts before the forwarding event
// the selector is running in.
func (s *Switch) QueueBytes(port int32) int {
	p := s.Ports[port]
	p.settle(s.eng.Now() - s.cfg.FwdDelay)
	return p.Q.Bytes()
}

// LastTxEnd returns the engine time the given egress port last finished
// serializing a packet, or -1 before any transmission. Flowlet-style
// selectors (routing.FlowDyn) read it from inside Select to judge how long
// an egress has been idle — an idle port has drained whatever queue the
// estimate saw. A transmission that ends on the very nanosecond of the call
// counts exactly when its completion sorts before the forwarding event the
// selector is running in, as for QueueBytes.
func (s *Switch) LastTxEnd(port int32) sim.Time {
	p := s.Ports[port]
	p.settle(s.eng.Now() - s.cfg.FwdDelay)
	return p.lastTxEnd
}

// Receive implements Device.
func (s *Switch) Receive(pkt *Packet, inPort int) {
	pkt.debugCheckLive("Switch.Receive")
	s.RxPackets++
	if s.cfg.PFC != nil {
		s.ingressBytes[inPort] += pkt.Size
		pkt.pfcSw = s
		pkt.pfcIn = inPort
		s.checkPause(inPort)
	}
	pkt.Hops++
	if d := s.cfg.FwdDelay; d > 0 {
		now := s.eng.Now()
		pkt.scheduleStepAt(s.eng, now+d, now, stepForward, s, inPort)
	} else {
		s.forward(pkt)
	}
}

func (s *Switch) forward(pkt *Packet) {
	if int(pkt.Dst) >= len(s.table) {
		panic(fmt.Sprintf("netsim: switch %d has no table entry for dst %d", s.id, pkt.Dst))
	}
	eligible := s.table[pkt.Dst]
	var out int32
	switch {
	case len(eligible) == 0:
		s.NoRoute++
		s.dropPFC(pkt)
		s.pool.Put(pkt)
		return
	case len(eligible) == 1:
		out = eligible[0]
	default:
		out = s.selectPort(pkt, eligible)
	}
	if sb := s.cfg.SharedBuffer; sb > 0 && s.buffered+int64(pkt.Size) > int64(sb) {
		s.DropsNoBuf++
		s.dropPFC(pkt)
		s.pool.Put(pkt)
		return
	}
	if !s.Ports[out].enqueue(pkt, s.eng.Now()-s.cfg.FwdDelay) {
		s.DropsNoBuf++
		s.dropPFC(pkt)
		s.pool.Put(pkt)
		return
	}
	if s.cfg.SharedBuffer > 0 {
		s.buffered += int64(pkt.Size)
	}
}

// selectPort picks among >= 2 eligible egress ports, consulting the memo
// cache when the installed selector is cacheable. Only packets carrying a
// valid hash prefix participate: together with (Dst, PathTag) the prefix
// exactly determines a static selector's choice, so a hit returns the very
// port the selector would have computed. Misses fall through to the selector
// and memoize its answer. Under -tags simdebug every hit is cross-checked
// against a fresh Select call.
func (s *Switch) selectPort(pkt *Packet, eligible []int32) int32 {
	if !s.selCached || !pkt.HashPrefixOK {
		return s.sel.Select(s, pkt, eligible)
	}
	if s.selCache == nil {
		s.selCache = make([]selSlot, selCacheSlots)
	}
	sl := &s.selCache[selCacheIndex(pkt.HashPrefix, pkt.Dst, pkt.PathTag)]
	if sl.gen == s.selGen && sl.prefix == pkt.HashPrefix && sl.dst == pkt.Dst && sl.tag == pkt.PathTag {
		s.debugCheckSelect(pkt, eligible, sl.port)
		return sl.port
	}
	out := s.sel.Select(s, pkt, eligible)
	*sl = selSlot{prefix: pkt.HashPrefix, dst: pkt.Dst, tag: pkt.PathTag, gen: s.selGen, port: out}
	return out
}

// selCacheIndex maps a memo key to a direct-mapped slot. The prefix is
// already avalanche-quality entropy; dst and tag are folded in with odd
// multipliers so flows to nearby destinations (or adjacent tags of one flow)
// land in distinct slots.
func selCacheIndex(prefix uint64, dst NodeID, tag uint32) int {
	x := prefix ^ uint64(uint32(dst))*0x9e3779b97f4a7c15 ^ uint64(tag)*0xbf58476d1ce4e5b9
	x ^= x >> 29
	return int(x & (selCacheSlots - 1))
}

// SelectEgress returns the egress port the switch would forward pkt on
// (including the memo cache, exactly as the data path does), or -1 when the
// destination has no route. Exported for benchmarks and path-prediction
// tools; it does not enqueue or mutate counters.
func (s *Switch) SelectEgress(pkt *Packet) int32 {
	if int(pkt.Dst) >= len(s.table) {
		return -1
	}
	eligible := s.table[pkt.Dst]
	switch {
	case len(eligible) == 0:
		return -1
	case len(eligible) == 1:
		return eligible[0]
	}
	return s.selectPort(pkt, eligible)
}

// dropPFC releases the PFC ingress accounting for a packet dropped inside
// this switch (can only happen via NoRoute when PFC is on).
func (s *Switch) dropPFC(pkt *Packet) {
	if pkt.pfcSw == s {
		s.releaseIngress(pkt)
	}
}

func (s *Switch) releaseIngress(pkt *Packet) {
	if pkt.pfcSw != s {
		return
	}
	in := pkt.pfcIn
	pkt.pfcSw = nil
	s.ingressBytes[in] -= pkt.Size
	s.checkPause(in)
}

func (s *Switch) checkPause(in int) {
	cfg := s.cfg.PFC
	up := s.upstream[in]
	if up == nil {
		return
	}
	switch {
	case !s.pausedUp[in] && s.ingressBytes[in] > cfg.Pause:
		s.pausedUp[in] = true
		s.PauseEvents++
		s.sendPFC(up, true)
	case s.pausedUp[in] && s.ingressBytes[in] <= cfg.Unpause:
		s.pausedUp[in] = false
		s.sendPFC(up, false)
	}
}

// sendPFC delivers a pause/unpause control frame to the upstream transmitter
// after the reverse-direction propagation delay. Control frames are modeled
// as out-of-band (they do not occupy queue space), which is how PFC frames
// bypass data queuing in real NICs.
func (s *Switch) sendPFC(up *Port, pause bool) {
	if d := up.Link.Delay; d > 0 {
		s.eng.Schedule(d, up.pfcFrame(pause))
	} else {
		up.SetPaused(pause)
	}
}
