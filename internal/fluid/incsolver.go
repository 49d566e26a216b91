package fluid

import (
	"math"
	"sync"
	"sync/atomic"
)

// sessBlock is the fixed number of link-entry slots reserved per session —
// the longest fat-tree path. Session s owns entries
// [s*sessBlock, s*sessBlock+sN[s]); the entry index doubles as the node id
// in each link's intrusive session list, so adding or removing a session
// never allocates.
const sessBlock = maxPathLinks

// markSatThresh is the utilization at which a link counts as saturated for
// the standing-queue model (identical to the packet-fidelity rule the full
// re-solve engine used: solver freezing levels put bottlenecked links
// numerically at 1, so this only rejects genuinely-below-capacity links).
const markSatThresh = 0.999

// parThreshDefault is the affected-set size below which the sharded solver
// stays serial: goroutine dispatch costs more than a small component solve.
// The threshold is a pure function of the affected set — never of the shard
// count — so the serial and parallel solvers make identical decisions and
// stay bit-identical.
const parThreshDefault = 256

// IncSolver is the incremental max-min rate solver: the same progressive
// waterfilling as Waterfill, but maintained as persistent state so that a
// flow add/remove/reroute only re-solves the bottleneck-connected component
// reachable from the touched links instead of the whole fabric.
//
// Sessions are slot-allocated structure-of-arrays records; each link keeps
// an intrusive doubly-linked list of the session entries crossing it.
// Mutations (Add/Remove/SetCap/SetLinks) are staged: they seed a dirty set
// and record, per touched link, whether it was saturated before the event.
// Commit then runs the dirty-set propagation:
//
//  1. re-waterfill the affected set A against the residual capacity left by
//     untouched outsiders (whose rates, by max-min uniqueness, cannot
//     change unless a rule below fires);
//  2. scan the touched links for outsiders that must join A —
//     J1 (shrink): the link is saturated and the outsider holds a rate
//     strictly above the largest new A-rate on it, so fairness entitles an
//     A-session to part of the outsider's share;
//     J2 (grow): the link was saturated before the event and the outsider
//     is below its cap, and the link either fell below saturation (freed
//     capacity) or now carries a strictly larger A-rate (headroom to equal
//     shares);
//  3. repeat until no outsider joins. Outsiders never scanned keep their
//     rates untouched — the bottleneck certificate that froze them is
//     undisturbed, which is exactly why the incremental answer equals a
//     from-scratch Waterfill (the property and fuzz tests pin this).
//
// Within a Commit, A splits into connected components (sessions joined by
// shared links); components are solved independently in first-appearance
// order. Because components are link-disjoint, solving them on parallel
// workers performs the identical floating-point arithmetic as solving them
// in sequence — results are bit-identical at any shard count, which the
// solver-shards digest test pins the way byteident pins the packet engine.
//
// A component is progressive-filled over live sets (solveComp): the members
// still unfrozen and the links that still carry one, compacted in place and
// in order after every bottleneck iteration, each live link's share divided
// out once per iteration. An iteration therefore costs what is still live,
// not the component — sprayed transfers weld hundreds of sessions into one
// component that freezes over dozens of iterations — and the rates are bit
// for bit those of rescanning the whole component every time, which the
// oracle in incsolver_oracle_test.go keeps doing.
//
// The steady-state Commit path performs zero heap allocations: all
// link/session/scratch state lives in reusable arenas that only grow on
// first use. (The parallel dispatch path, when a large multi-component
// affected set engages it, spends a few allocations on goroutine bring-up.)
type IncSolver struct {
	// Link state.
	caps    []float64 // sanitized capacities: 0 <= c <= hugeCap
	rawCaps []float64 // caller capacities (serialization math wants them raw)
	marking []bool    // link can hold a visible standing queue; nil = none
	load    []float64 // sum of session rates crossing the link
	nOn     []int32   // entry count on the link (occurrences)
	head    []int32   // first intrusive-list entry, -1 when empty
	qCnt    []int32   // sessions whose standing-queue mark is this link

	// Per-commit link stamps.
	tStamp []uint32 // link touched (considered) this commit
	satB   []bool   // strictly saturated at first touch, before any mutation
	qSatB  []bool   // standing-queue-saturated (satMark) at first touch

	// Per-round link scratch, stamped by roundGen.
	wSeen  []uint32
	wRem   []float64
	wAct   []int32
	wBneck []uint64
	lmaxS  []uint32
	lmaxV  []float64
	compS  []uint32
	compOf []int32

	// Session state (slot-allocated; sLink holds sessBlock entries each).
	sCap   []float64
	sRate  []float64
	sN     []int8
	sAlive []bool
	sMark  []int32  // current standing-queue link, -1 when none
	sStamp []uint32 // session staged into A this commit
	mStamp []uint32 // mark-pass dedup this commit
	lStamp []uint32 // session's link set changed this commit
	sLink  []int32
	eNext  []int32
	ePrev  []int32
	freeS  []int32

	// Commit workspace.
	gen        uint32
	roundGen   uint32
	pending    bool
	considered []int32
	inA        []int32 // affected sessions, in staging/join order
	aRate      []float64

	// Component-split scratch (per solve round).
	ufParent []int32
	posComp  []int32
	rootComp []int32
	compCnt  []int32
	compSess []int32
	compOffs []int32
	compLOff []int32
	compLink []int32
	// compShare caches each live link's fair share for one bottleneck
	// iteration. Positional, parallel to compLink: it scales with the affected
	// set, not the fabric, and components keep disjoint regions of it.
	compShare []float64

	iterCtr atomic.Uint64 // globally unique bottleneck-iteration tags

	shards    int // max parallel workers for the component solve; <=1 serial
	parThresh int // test override for parThreshDefault; 0 = default

}

// Reset initializes the solver for the given link capacities, dropping any
// previous sessions. marking flags the links that can hold a visible
// standing queue (nil for none). Arenas are retained across Resets.
func (is *IncSolver) Reset(capacity []float64, marking []bool) {
	n := len(capacity)
	is.rawCaps = capacity
	is.marking = marking
	is.caps = grown(is.caps, n)
	for i, c := range capacity {
		if c < 0 || math.IsNaN(c) {
			c = 0
		} else if math.IsInf(c, 1) || c > hugeCap {
			c = hugeCap
		}
		is.caps[i] = c
	}
	is.load = grown(is.load, n)
	is.nOn = grown(is.nOn, n)
	is.head = grown(is.head, n)
	is.qCnt = grown(is.qCnt, n)
	is.tStamp = grown(is.tStamp, n)
	is.satB = grown(is.satB, n)
	is.qSatB = grown(is.qSatB, n)
	is.wSeen = grown(is.wSeen, n)
	is.wRem = grown(is.wRem, n)
	is.wAct = grown(is.wAct, n)
	is.wBneck = grown(is.wBneck, n)
	is.lmaxS = grown(is.lmaxS, n)
	is.lmaxV = grown(is.lmaxV, n)
	is.compS = grown(is.compS, n)
	is.compOf = grown(is.compOf, n)
	for i := 0; i < n; i++ {
		is.load[i] = 0
		is.nOn[i] = 0
		is.head[i] = -1
		is.qCnt[i] = 0
		is.tStamp[i] = 0
		is.wSeen[i] = 0
		is.lmaxS[i] = 0
		is.compS[i] = 0
	}
	is.sCap = is.sCap[:0]
	is.sRate = is.sRate[:0]
	is.sN = is.sN[:0]
	is.sAlive = is.sAlive[:0]
	is.sMark = is.sMark[:0]
	is.sStamp = is.sStamp[:0]
	is.mStamp = is.mStamp[:0]
	is.lStamp = is.lStamp[:0]
	is.sLink = is.sLink[:0]
	is.eNext = is.eNext[:0]
	is.ePrev = is.ePrev[:0]
	is.freeS = is.freeS[:0]
	is.gen = 0
	is.roundGen = 0
	is.pending = false
	is.considered = is.considered[:0]
	is.inA = is.inA[:0]
	if is.shards == 0 {
		is.shards = 1
	}
}

// SetShards sets the maximum number of parallel workers the component solve
// may use. 0 or 1 keeps every solve serial. Results are bit-identical at
// any value.
func (is *IncSolver) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	is.shards = n
}

// Links returns the number of links the solver was Reset with.
func (is *IncSolver) Links() int { return len(is.caps) }

// Sessions returns the session slot count (high-water, including free slots).
func (is *IncSolver) Sessions() int { return len(is.sCap) }

// Pending reports whether staged mutations await a Commit.
func (is *IncSolver) Pending() bool { return is.pending }

// Rate returns session s's rate as of the last Commit.
func (is *IncSolver) Rate(s int32) float64 { return is.sRate[s] }

// Queued reports whether link l holds a standing queue as of the last
// Commit: at least one session's first saturated link is l and l is a
// marking (switch-egress) queue.
func (is *IncSolver) Queued(l int32) bool { return is.qCnt[l] > 0 }

// Load returns the total allocated rate crossing link l.
func (is *IncSolver) Load(l int32) float64 { return is.load[l] }

// Affected returns the sessions whose rates the last Commit re-solved, in
// deterministic staging/join order. Valid until the next staged mutation.
func (is *IncSolver) Affected() []int32 { return is.inA }

// stage opens a staging window: the first mutation after a Commit advances
// the commit generation and clears the workspaces.
func (is *IncSolver) stage() {
	if is.pending {
		return
	}
	is.pending = true
	is.gen++
	if is.gen == 0 { // uint32 wrap: invalidate every stamped array
		for i := range is.tStamp {
			is.tStamp[i] = 0
		}
		for i := range is.sStamp {
			is.sStamp[i] = 0
			is.mStamp[i] = 0
			is.lStamp[i] = 0
		}
		is.gen = 1
	}
	is.considered = is.considered[:0]
	is.inA = is.inA[:0]
}

// touchLink marks l considered this commit, capturing its pre-event
// saturation state the first time. Loads only ever change on touched links,
// so a first touch always observes the pre-commit load.
func (is *IncSolver) touchLink(l int32) {
	if is.tStamp[l] == is.gen {
		return
	}
	is.tStamp[l] = is.gen
	c := is.caps[l]
	ld := is.load[l]
	is.satB[l] = ld >= c-(c*1e-9+1e-6)
	is.qSatB[l] = c <= 0 || ld >= markSatThresh*c
	is.considered = append(is.considered, l)
}

// stageSession puts session s into the affected set (once per commit).
func (is *IncSolver) stageSession(s int32) {
	if is.sStamp[s] == is.gen {
		return
	}
	is.sStamp[s] = is.gen
	is.inA = append(is.inA, s)
}

// strictSat is the solver-tolerance saturation test driving the join rules.
func (is *IncSolver) strictSat(l int32) bool {
	c := is.caps[l]
	return is.load[l] >= c-(c*1e-9+1e-6)
}

// satMark is the looser standing-queue saturation test (same threshold the
// full re-solve engine used for its first-saturated-link rule).
func (is *IncSolver) satMark(l int32) bool {
	c := is.caps[l]
	if c <= 0 {
		return true
	}
	return is.load[l] >= markSatThresh*c
}

// rateEps is the join-rule comparison slack: strict inequalities on rates
// are taken up to relative 1e-9 (plus an absolute floor far below 1 bit/s).
func rateEps(v float64) float64 { return v*1e-9 + 1e-6 }

// Add registers a session over the given links (entries beyond sessBlock
// in-range links are ignored; out-of-range links are skipped, matching
// Waterfill) with the given rate cap (non-positive, NaN or +Inf =
// uncapped). The session's rate is 0 until the next Commit.
func (is *IncSolver) Add(links []int32, cap float64) int32 {
	is.stage()
	s := is.allocSession()
	if cap <= 0 || math.IsNaN(cap) || math.IsInf(cap, 1) {
		cap = hugeCap
	}
	is.sCap[s] = cap
	is.sRate[s] = 0
	is.sAlive[s] = true
	is.sMark[s] = -1
	is.sN[s] = 0
	is.linkAll(s, links)
	is.stageSession(s)
	return s
}

// linkAll inserts session s's entries into its links' intrusive lists and
// touches each link.
func (is *IncSolver) linkAll(s int32, links []int32) {
	is.lStamp[s] = is.gen
	base := int32(s) * sessBlock
	for _, l := range links {
		if l < 0 || int(l) >= len(is.caps) {
			continue
		}
		if is.sN[s] == sessBlock {
			break
		}
		e := base + int32(is.sN[s])
		is.sLink[e] = l
		is.eNext[e] = is.head[l]
		is.ePrev[e] = -1
		if is.head[l] >= 0 {
			is.ePrev[is.head[l]] = e
		}
		is.head[l] = e
		is.nOn[l]++
		is.sN[s]++
		is.touchLink(l)
	}
}

// unlinkAll removes session s's entries from their links, touching each and
// returning its allocated rate to the links' residual capacity.
func (is *IncSolver) unlinkAll(s int32) {
	is.lStamp[s] = is.gen
	base := int32(s) * sessBlock
	r := is.sRate[s]
	for j := int8(0); j < is.sN[s]; j++ {
		e := base + int32(j)
		l := is.sLink[e]
		is.touchLink(l)
		if is.ePrev[e] >= 0 {
			is.eNext[is.ePrev[e]] = is.eNext[e]
		} else {
			is.head[l] = is.eNext[e]
		}
		if is.eNext[e] >= 0 {
			is.ePrev[is.eNext[e]] = is.ePrev[e]
		}
		is.nOn[l]--
		if is.nOn[l] == 0 {
			is.load[l] = 0 // empty link: kill accumulated float drift exactly
		} else if is.load[l] -= r; is.load[l] < 0 {
			is.load[l] = 0
		}
	}
	is.sN[s] = 0
}

// Remove retires a session, freeing its capacity for outsiders at the next
// Commit. The slot is recycled.
func (is *IncSolver) Remove(s int32) {
	is.stage()
	is.unlinkAll(s)
	if is.sMark[s] >= 0 {
		is.qCnt[is.sMark[s]]--
		is.sMark[s] = -1
	}
	is.sAlive[s] = false
	is.sRate[s] = 0
	is.freeS = append(is.freeS, s)
}

// SetCap restages session s with a new rate cap.
func (is *IncSolver) SetCap(s int32, cap float64) {
	if cap <= 0 || math.IsNaN(cap) || math.IsInf(cap, 1) {
		cap = hugeCap
	}
	if cap == is.sCap[s] {
		return
	}
	is.stage()
	is.sCap[s] = cap
	base := int32(s) * sessBlock
	for j := int8(0); j < is.sN[s]; j++ {
		is.touchLink(is.sLink[base+int32(j)])
	}
	is.stageSession(s)
}

// SetLinks moves session s onto a new path (a reroute): its rate is
// returned to the old links and the session re-enters the solve from zero
// on the new ones.
func (is *IncSolver) SetLinks(s int32, links []int32) {
	is.stage()
	is.unlinkAll(s)
	is.sRate[s] = 0
	is.linkAll(s, links)
	if is.sN[s] == 0 && is.sMark[s] >= 0 {
		// No surviving in-range links: the mark pass will never visit the
		// session again, so clear its standing-queue mark now.
		is.qCnt[is.sMark[s]]--
		is.sMark[s] = -1
	}
	is.stageSession(s)
}

// Commit solves the staged mutations: dirty-set propagation, the component
// solve, and the standing-queue mark pass. No-op when nothing is staged.
func (is *IncSolver) Commit() {
	if !is.pending {
		return
	}
	// Drop sessions that were staged and then removed within this window.
	w := 0
	for _, s := range is.inA {
		if is.sAlive[s] {
			is.inA[w] = s
			w++
		}
	}
	is.inA = is.inA[:w]

	for {
		is.bumpRound()
		if len(is.inA) > 0 {
			is.solveRound()
		}
		if !is.joinScan() {
			break
		}
	}
	is.markPass()
	is.pending = false
}

// bumpRound advances the per-round link-scratch generation.
func (is *IncSolver) bumpRound() {
	is.roundGen++
	if is.roundGen == 0 {
		for i := range is.wSeen {
			is.wSeen[i] = 0
			is.lmaxS[i] = 0
			is.compS[i] = 0
		}
		is.roundGen = 1
	}
}

// solveRound re-waterfills the current affected set: split into connected
// components, solve each against the outsiders' residual capacity, then
// apply the new rates to the shared load/lmax state.
func (is *IncSolver) solveRound() {
	n := len(is.inA)
	rg := is.roundGen

	// Fast path for the steady state's dominant case: a single affected
	// session is trivially one component, so the whole union-find, component
	// numbering, and per-link scratch machinery reduces to "take the minimum
	// residual over the session's links". The arithmetic below replays the
	// general path's exactly — wRem[l] = (caps-load)+sRate built in the same
	// association, wRem/1 skipped as IEEE-exact, the same eps policy, the
	// same apply — so every digest is bit-identical to the scaffolded route.
	// A duplicated link on the path (raw Add API only) needs wAct and falls
	// through to the general machinery.
	if n == 1 {
		s := is.inA[0]
		nl := int32(is.sN[s])
		base := int32(s) * sessBlock
		dup := false
		for a := int32(1); a < nl; a++ {
			for b := int32(0); b < a; b++ {
				if is.sLink[base+a] == is.sLink[base+b] {
					dup = true
				}
			}
		}
		if !dup {
			r0 := is.sRate[s]
			cp := is.sCap[s]
			var nr float64
			if nl == 0 {
				if cp < hugeCap {
					nr = cp
				}
			} else {
				level := math.Inf(1)
				for j := int32(0); j < nl; j++ {
					l := is.sLink[base+j]
					if rem := is.caps[l] - is.load[l] + r0; rem < level {
						level = rem
					}
				}
				if cp < level {
					level = cp
				}
				if level < 0 {
					level = 0
				}
				eps := level*1e-9 + 1e-15
				if cp <= level+eps {
					nr = cp
				} else {
					nr = level
				}
			}
			for j := int32(0); j < nl; j++ {
				l := is.sLink[base+j]
				if is.load[l] += nr - r0; is.load[l] < 0 {
					is.load[l] = 0
				}
				is.lmaxS[l] = rg
				is.lmaxV[l] = nr
			}
			is.sRate[s] = nr
			return
		}
	}

	ncomp := is.splitComps()

	// Solve the components — serial, or on a small worker pool when the
	// affected set is large. Components are link-disjoint, so both paths
	// perform the identical arithmetic and produce bit-identical rates.
	thresh := is.parThresh
	if thresh == 0 {
		thresh = parThreshDefault
	}
	if is.shards > 1 && ncomp > 1 && n >= thresh {
		is.solveCompsParallel(ncomp)
	} else {
		for c := 0; c < ncomp; c++ {
			is.solveComp(c)
		}
	}

	is.applyRates(rg)
}

// splitComps groups the affected set into link-connected components,
// numbered by first appearance in A order, and sizes the per-component
// regions of the solve arenas. It returns the component count.
func (is *IncSolver) splitComps() int {
	n := len(is.inA)
	rg := is.roundGen

	// Union-find the affected sessions into link-connected components.
	is.ufParent = grown(is.ufParent, n)
	for i := 0; i < n; i++ {
		is.ufParent[i] = int32(i)
	}
	for i := 0; i < n; i++ {
		s := is.inA[i]
		base := int32(s) * sessBlock
		for j := int8(0); j < is.sN[s]; j++ {
			l := is.sLink[base+int32(j)]
			if is.compS[l] != rg {
				is.compS[l] = rg
				is.compOf[l] = int32(i)
				continue
			}
			ra, rb := ufFind(is.ufParent, int32(i)), ufFind(is.ufParent, is.compOf[l])
			if ra != rb {
				if ra < rb {
					is.ufParent[rb] = ra
				} else {
					is.ufParent[ra] = rb
				}
			}
		}
	}

	// Number components by first appearance in A order; group A positions.
	is.posComp = grown(is.posComp, n)
	is.rootComp = grown(is.rootComp, n)
	for i := 0; i < n; i++ {
		is.rootComp[i] = -1
	}
	ncomp := 0
	for i := 0; i < n; i++ {
		r := ufFind(is.ufParent, int32(i))
		if is.rootComp[r] < 0 {
			is.rootComp[r] = int32(ncomp)
			ncomp++
		}
		is.posComp[i] = is.rootComp[r]
	}
	is.compCnt = grown(is.compCnt, ncomp)
	for c := 0; c < ncomp; c++ {
		is.compCnt[c] = 0
	}
	for i := 0; i < n; i++ {
		is.compCnt[is.posComp[i]]++
	}
	is.compOffs = grown(is.compOffs, ncomp+1)
	is.compLOff = grown(is.compLOff, ncomp+1)
	is.compOffs[0], is.compLOff[0] = 0, 0
	for c := 0; c < ncomp; c++ {
		is.compOffs[c+1] = is.compOffs[c] + is.compCnt[c]
		is.compLOff[c+1] = is.compLOff[c] + is.compCnt[c]*sessBlock
	}
	is.compSess = grown(is.compSess, n)
	is.compLink = grown(is.compLink, n*sessBlock)
	is.compShare = grown(is.compShare, n*sessBlock)
	for c := 0; c < ncomp; c++ {
		is.compCnt[c] = is.compOffs[c] // reuse as fill cursor
	}
	for i := 0; i < n; i++ {
		c := is.posComp[i]
		is.compSess[is.compCnt[c]] = int32(i)
		is.compCnt[c]++
	}

	is.aRate = grown(is.aRate, n)
	return ncomp
}

// applyRates folds the round's new rates into the shared link loads and
// records the per-link maximum new A-rate for the join scan.
func (is *IncSolver) applyRates(rg uint32) {
	n := len(is.inA)
	for i := 0; i < n; i++ {
		s := is.inA[i]
		nr := is.aRate[i]
		or := is.sRate[s]
		base := int32(s) * sessBlock
		for j := int8(0); j < is.sN[s]; j++ {
			l := is.sLink[base+int32(j)]
			is.load[l] += nr - or
			if is.load[l] < 0 {
				is.load[l] = 0
			}
			if is.lmaxS[l] != rg {
				is.lmaxS[l] = rg
				is.lmaxV[l] = nr
			} else if nr > is.lmaxV[l] {
				is.lmaxV[l] = nr
			}
		}
		is.sRate[s] = nr
	}
}

// solveCompsParallel fans the round's components out over a small worker
// pool. It lives in its own (noinline-by-closure) function so the goroutine
// captures never force the serial path's locals onto the heap: the
// steady-state serial solve stays allocation-free.
func (is *IncSolver) solveCompsParallel(ncomp int) {
	workers := is.shards
	if workers > ncomp {
		workers = ncomp
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= ncomp {
					return
				}
				is.solveComp(c)
			}
		}()
	}
	wg.Wait()
}

// ufFind is find-with-path-halving over the round's union-find forest.
func ufFind(p []int32, x int32) int32 {
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

// solveComp progressive-fills one affected component against the residual
// capacity its links have left after the untouched outsiders. Level
// construction, epsilon policy and numerical backstop are waterfiller.solve's,
// so the incremental solver inherits the reference solver's arithmetic.
//
// sess and links are the live sets of the type comment. Compaction keeps
// their order because sessions must freeze in A order: only then does every
// wRem[l] -= freezeAt land in the order a full rescan applies it, and two
// members freezing in one iteration on caps that tie within eps, not
// exactly, make that order visible in the result bits.
func (is *IncSolver) solveComp(c int) {
	rg := is.roundGen
	sess := is.compSess[is.compOffs[c]:is.compOffs[c+1]]
	// Three-index slice: the append below must stay inside this component's
	// region of the shared arenas — components solve concurrently.
	lo, hi := is.compLOff[c], is.compLOff[c+1]
	links := is.compLink[lo:lo:hi]
	share := is.compShare[lo:hi]

	live := 0
	for _, ai := range sess {
		s := is.inA[ai]
		if is.sN[s] == 0 {
			// Linkless: rate is the cap alone, never enters the loop.
			if is.sCap[s] >= hugeCap {
				is.aRate[ai] = 0
			} else {
				is.aRate[ai] = is.sCap[s]
			}
			continue
		}
		sess[live] = ai
		live++
		is.aRate[ai] = 0
		base := int32(s) * sessBlock
		for j := int8(0); j < is.sN[s]; j++ {
			l := is.sLink[base+int32(j)]
			if is.wSeen[l] != rg {
				is.wSeen[l] = rg
				is.wRem[l] = is.caps[l] - is.load[l]
				is.wAct[l] = 0
				links = append(links, l)
			}
			// Give this member's current holding back: the component solves
			// against capacity net of outsiders only.
			is.wRem[l] += is.sRate[s]
			is.wAct[l]++
		}
	}
	sess = sess[:live]

	// Single-session shortcut for the dominant steady-state component. With
	// one member, every member link has wAct == 1 (wRem/1 is IEEE-exact), the
	// minimum link always satisfies the bottleneck test, and the freeze rule
	// collapses to "cap if within eps of the level, else the level" — the
	// identical arithmetic as one iteration of the general loop below, minus
	// the tagging scaffolding (the skipped iterCtr draw is value-independent).
	// A path that crosses the same link twice (possible through the raw Add
	// API, never from the path builder) would need the wAct bookkeeping, so
	// it takes the general loop; len(links) < sN detects exactly that.
	if len(sess) == 1 && len(links) == int(is.sN[is.inA[sess[0]]]) {
		ai := sess[0]
		cp := is.sCap[is.inA[ai]]
		level := math.Inf(1)
		for _, l := range links {
			if is.wRem[l] < level {
				level = is.wRem[l]
			}
		}
		if cp < level {
			level = cp
		}
		if level < 0 {
			level = 0
		}
		eps := level*1e-9 + 1e-15
		if cp <= level+eps {
			is.aRate[ai] = cp
		} else {
			is.aRate[ai] = level
		}
		return
	}

	for len(sess) > 0 {
		tag := is.iterCtr.Add(1)
		level := math.Inf(1)
		// One pass drops the links whose last member froze, computes each
		// survivor's fair share once, and takes the minimum.
		w := 0
		for _, l := range links {
			if is.wAct[l] > 0 {
				v := is.wRem[l] / float64(is.wAct[l])
				links[w], share[w] = l, v
				w++
				if v < level {
					level = v
				}
			}
		}
		links = links[:w]
		for _, ai := range sess {
			if cp := is.sCap[is.inA[ai]]; cp < level {
				level = cp
			}
		}
		if level < 0 {
			level = 0
		}
		eps := level*1e-9 + 1e-15
		for i, l := range links {
			if share[i] <= level+eps {
				is.wBneck[l] = tag
			}
		}
		w = 0
		for _, ai := range sess {
			s := is.inA[ai]
			base := int32(s) * sessBlock
			freezeAt := -1.0
			if is.sCap[s] <= level+eps {
				freezeAt = is.sCap[s]
			} else {
				for j := int8(0); j < is.sN[s]; j++ {
					if is.wBneck[is.sLink[base+int32(j)]] == tag {
						freezeAt = level
						break
					}
				}
			}
			if freezeAt < 0 {
				sess[w] = ai
				w++
				continue
			}
			is.aRate[ai] = freezeAt
			for j := int8(0); j < is.sN[s]; j++ {
				l := is.sLink[base+int32(j)]
				is.wRem[l] -= freezeAt
				if is.wRem[l] < 0 {
					is.wRem[l] = 0
				}
				is.wAct[l]--
			}
		}
		if w == len(sess) {
			// Numerical backstop, as in the reference solver.
			for _, ai := range sess {
				is.aRate[ai] = level
			}
			return
		}
		sess = sess[:w]
	}
}

// joinScan applies the J1/J2 rules over every considered link, pulling
// outsiders whose bottleneck certificate the round disturbed into the
// affected set. Returns whether anything joined (another round is needed).
func (is *IncSolver) joinScan() bool {
	rg := is.roundGen
	joined := false
	for _, l := range is.considered {
		satA := is.strictSat(l)
		hasA := is.lmaxS[l] == rg
		lm := is.lmaxV[l]
		if !satA && !is.satB[l] {
			continue // link constrains nobody, before or after
		}
		for e := is.head[l]; e >= 0; e = is.eNext[e] {
			s := e / sessBlock
			if is.sStamp[s] == is.gen {
				continue // already affected
			}
			r := is.sRate[s]
			join := false
			if hasA && satA && r > lm+rateEps(r) {
				join = true // J1: outsider holds more than the new fair share
			} else if is.satB[l] && r < is.sCap[s]-rateEps(is.sCap[s]) &&
				(!satA || (hasA && lm > r+rateEps(r))) {
				join = true // J2: capacity freed (or share grew) under the outsider
			}
			if !join {
				continue
			}
			is.stageSession(s)
			base := int32(s) * sessBlock
			for j := int8(0); j < is.sN[s]; j++ {
				is.touchLink(is.sLink[base+int32(j)])
			}
			joined = true
		}
	}
	return joined
}

// markPass refreshes the standing-queue marks for every session whose state
// this commit could have changed. A session's mark depends solely on its own
// links' satMark bits, and loads only moved on considered links — so the
// only candidates are the re-solved sessions themselves (their link sets may
// have changed) and the sessions listed on a considered link whose satMark
// state actually flipped across the commit. Most commits flip nothing and
// the pass degenerates to a handful of stamp checks.
func (is *IncSolver) markPass() {
	for _, s := range is.inA {
		// A re-solved session whose link set is unchanged can only change
		// its mark through a satMark flip on one of its links, and every
		// such link is caught by the considered-link sweep below.
		if is.lStamp[s] == is.gen {
			is.remark(s)
		}
	}
	for _, l := range is.considered {
		if is.satMark(l) == is.qSatB[l] {
			continue
		}
		for e := is.head[l]; e >= 0; e = is.eNext[e] {
			is.remark(e / sessBlock)
		}
	}
}

// remark recomputes one session's standing-queue mark (once per commit).
func (is *IncSolver) remark(s int32) {
	if is.mStamp[s] == is.gen {
		return
	}
	is.mStamp[s] = is.gen
	m := is.firstSatMark(s)
	if m != is.sMark[s] {
		if is.sMark[s] >= 0 {
			is.qCnt[is.sMark[s]]--
		}
		if m >= 0 {
			is.qCnt[m]++
		}
		is.sMark[s] = m
	}
}

// firstSatMark finds session s's standing queue: a windowed sender's
// congestion control builds a persistent queue at the flow's first
// saturated link — upstream links pace the flow below their capacity, so
// queues cannot stand anywhere else. When that link is not a marking queue
// (the sender's own NIC), the queue is invisible to the fabric.
func (is *IncSolver) firstSatMark(s int32) int32 {
	base := int32(s) * sessBlock
	for j := int8(0); j < is.sN[s]; j++ {
		l := is.sLink[base+int32(j)]
		if is.satMark(l) {
			if is.marking != nil && is.marking[l] {
				return l
			}
			return -1
		}
	}
	return -1
}

// allocSession returns a free session slot, growing the arenas on demand.
func (is *IncSolver) allocSession() int32 {
	if n := len(is.freeS); n > 0 {
		s := is.freeS[n-1]
		is.freeS = is.freeS[:n-1]
		return s
	}
	s := int32(len(is.sCap))
	is.sCap = append(is.sCap, 0)
	is.sRate = append(is.sRate, 0)
	is.sN = append(is.sN, 0)
	is.sAlive = append(is.sAlive, false)
	is.sMark = append(is.sMark, -1)
	is.sStamp = append(is.sStamp, 0)
	is.mStamp = append(is.mStamp, 0)
	is.lStamp = append(is.lStamp, 0)
	for i := 0; i < sessBlock; i++ {
		is.sLink = append(is.sLink, -1)
		is.eNext = append(is.eNext, -1)
		is.ePrev = append(is.ePrev, -1)
	}
	return s
}

// grown returns s extended to length n, reusing capacity. Growth is one
// allocation — appending element by element would reallocate and copy a
// fabric-sized slice a dozen times on the way up — of exactly n on a cold
// slice (Reset's per-link arrays), and of at least twice the old capacity on
// a warm one, so the per-commit scratch that creeps up with the affected set
// still grows amortized.
func grown[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	g := make([]T, n, max(n, 2*cap(s)))
	copy(g, s[:cap(s)])
	return g
}
