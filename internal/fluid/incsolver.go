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

// hugeCap stands in for an unbounded capacity or session cap: large enough
// to never bind in any realistic fabric, small enough to stay well inside
// float64 range under arithmetic.
const hugeCap = 1e30

// IncSolver is the incremental max-min rate solver: the same progressive
// waterfilling as the tests' from-scratch Waterfill oracle, but maintained
// as persistent state so that a flow add/remove/reroute only re-solves the
// bottleneck-connected component reachable from the touched links instead
// of the whole fabric.
//
// Layout. Everything the solver knows about a link is one 64-byte linkRec —
// capacity, load, intrusive session list, commit stamps and round scratch side
// by side, one cache line — so a pass that visits a link touches one record,
// not one fabric-sized array per field. Sessions are slot-allocated
// structure-of-arrays records (most passes read two or three session fields
// and skip the rest), grown all together by doubling; each link's list
// threads through the session entries crossing it.
//
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
// Every round takes one path, a lone session's as much as a sprayed
// transfer's, and walks A's (session, link) pairs three times, a pair costing
// one link record each time:
//
//   - splitComps, in A order, opens every link it meets for the first time
//     this round (residual = capacity net of load), folds each member's
//     current holding back into its links' residuals and counts it active
//     there — the component solves against capacity net of outsiders only —
//     and unions the members that share a link. A link lies in exactly one
//     component, so the holdings reach each link in the order a
//     per-component pass would add them. When the union-find ends in one
//     component (every sprayed commit) A is the member list and the
//     first-seen links are the link list as they stand; otherwise both are
//     bucketed by component, numbered by first appearance, at exact size.
//   - solveComp progressive-fills each component over live sets: the members
//     still unfrozen and the links that still carry one, compacted in place
//     and in order after every bottleneck iteration, each live link's share
//     divided out once per iteration into its record (wShare). An iteration
//     decides who freezes before it touches a link: a member freezes at its
//     cap, or at the level when one of its links' wShare is within eps of
//     it. So the iteration that freezes every live member — most of them —
//     ends the solve without the residual updates nobody would read. A
//     linkless session, a component of its own, just takes its cap (0 when
//     uncapped). Components are link-disjoint, so solving them on parallel
//     workers performs the identical floating-point arithmetic as solving
//     them in sequence: results are bit-identical at any shard count, which
//     the solver-shards digest test pins the way byteident pins the packet
//     engine.
//   - applyRates moves the loads and leaves each link's largest new A-rate
//     for the join scan in the record's wRem, which the solve has finished
//     with (wAct = -1 marks it written); a link carries an A-session exactly
//     when this round opened it.
//
// The rates are bit for bit those of the set-up-pass, rescan-everything loop
// this replaced, which the oracle in incsolver_oracle_test.go keeps running
// on scratch of its own.
//
// The steady-state Commit path performs zero heap allocations: all
// link/session/scratch state lives in reusable arenas that only grow on
// first use. (The parallel dispatch path, when a large multi-component
// affected set engages it, spends a few allocations on goroutine bring-up.)
type IncSolver struct {
	links   []linkRec
	marking []bool // link can hold a visible standing queue; nil = none

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

	// Round scratch, all of it scaling with the affected set, not the fabric.
	// seenLink lists the round's links in first-seen order; the comp* arrays
	// bucket A positions and links by component when there is more than one.
	seenLink []int32
	ufParent []int32
	posComp  []int32
	rootComp []int32
	compCnt  []int32
	compSess []int32
	compOffs []int32
	compLOff []int32
	compLink []int32

	shards    int // max parallel workers for the component solve; <=1 serial
	parThresh int // test override for parThreshDefault; 0 = default
}

// linkRec is one link's whole state in 64 bytes, one cache line. The stamps
// make the scratch fields self-invalidating: a field group is live only while
// its stamp equals the current commit (gen) or round (roundGen) generation.
// Nothing the record can derive is stored: a link's list is empty exactly
// when head < 0, and an A-session crossed it this round exactly when this
// round opened it (round == roundGen).
type linkRec struct {
	cap  float64 // sanitized capacity: 0 <= cap <= hugeCap
	load float64 // sum of session rates crossing the link

	// Round scratch, live while round == roundGen; wShare only while the link
	// is live in the current bottleneck iteration. The solve leaves wRem and
	// wAct dead, so applyRates reuses them: its first write on a link sets
	// wAct to -1 (no count is negative) and wRem to the new A-rate, and later
	// writes keep the largest, which is what joinScan reads.
	wRem   float64 // capacity left to the component's unfrozen members
	wShare float64 // wRem / wAct as of the current bottleneck iteration
	wAct   int32   // unfrozen member entries on the link
	first  int32   // A position of the first member that crossed it
	round  uint32  // == roundGen: opened by this round's splitComps

	head int32 // first intrusive-list entry, -1 when empty
	qCnt int32 // sessions whose standing-queue mark is this link

	// Commit stamp, and the saturation it captured at first touch, before
	// any mutation (live while tStamp == gen).
	tStamp uint32 // == gen: touched (considered) this commit
	satB   bool   // strictly saturated
	qSatB  bool   // standing-queue-saturated (satMark)
}

// Reset initializes the solver for the given link capacities, dropping any
// previous sessions. marking flags the links that can hold a visible
// standing queue (nil for none). Arenas are retained across Resets.
func (is *IncSolver) Reset(capacity []float64, marking []bool) {
	is.marking = marking
	is.links = grown(is.links, len(capacity))
	for i, c := range capacity {
		if c < 0 || math.IsNaN(c) {
			c = 0
		} else if math.IsInf(c, 1) || c > hugeCap {
			c = hugeCap
		}
		is.links[i] = linkRec{cap: c, head: -1}
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

// Pending reports whether staged mutations await a Commit.
func (is *IncSolver) Pending() bool { return is.pending }

// Rate returns session s's rate as of the last Commit.
func (is *IncSolver) Rate(s int32) float64 { return is.sRate[s] }

// Queued reports whether link l holds a standing queue as of the last
// Commit: at least one session's first saturated link is l and l is a
// marking (switch-egress) queue.
func (is *IncSolver) Queued(l int32) bool { return is.links[l].qCnt > 0 }

// Affected returns the sessions whose rates the last Commit re-solved, in
// deterministic staging/join order. Valid after a Commit, until the next
// staged mutation.
func (is *IncSolver) Affected() []int32 { return is.inA }

// stage opens a staging window: the first mutation after a Commit advances
// the commit generation and clears the workspaces.
func (is *IncSolver) stage() {
	if is.pending {
		return
	}
	is.pending = true
	is.gen++
	if is.gen == 0 { // uint32 wrap: invalidate every commit stamp
		for i := range is.links {
			is.links[i].tStamp = 0
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
	lk := &is.links[l]
	if lk.tStamp == is.gen {
		return
	}
	lk.tStamp = is.gen
	lk.satB = lk.strictSat()
	lk.qSatB = lk.satMark()
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
func (lk *linkRec) strictSat() bool {
	return lk.load >= lk.cap-(lk.cap*1e-9+1e-6)
}

// satMark is the looser standing-queue saturation test (same threshold the
// full re-solve engine used for its first-saturated-link rule).
func (lk *linkRec) satMark() bool {
	return lk.cap <= 0 || lk.load >= markSatThresh*lk.cap
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
		if l < 0 || int(l) >= len(is.links) {
			continue
		}
		if is.sN[s] == sessBlock {
			break
		}
		is.touchLink(l)
		lk := &is.links[l]
		e := base + int32(is.sN[s])
		is.sLink[e] = l
		is.eNext[e] = lk.head
		is.ePrev[e] = -1
		if lk.head >= 0 {
			is.ePrev[lk.head] = e
		}
		lk.head = e
		is.sN[s]++
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
		lk := &is.links[l]
		if is.ePrev[e] >= 0 {
			is.eNext[is.ePrev[e]] = is.eNext[e]
		} else {
			lk.head = is.eNext[e]
		}
		if is.eNext[e] >= 0 {
			is.ePrev[is.eNext[e]] = is.ePrev[e]
		}
		if lk.head < 0 {
			lk.load = 0 // empty link: kill accumulated float drift exactly
		} else if lk.load -= r; lk.load < 0 {
			lk.load = 0
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
		is.links[is.sMark[s]].qCnt--
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
		is.links[is.sMark[s]].qCnt--
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
	if is.roundGen == 0 { // uint32 wrap: invalidate every round stamp
		for i := range is.links {
			is.links[i].round = 0
		}
		is.roundGen = 1
	}
}

// solveRound re-waterfills the current affected set: split into connected
// components, solve each against the outsiders' residual capacity, then
// apply the new rates to the shared load/lmax state.
func (is *IncSolver) solveRound() {
	n := len(is.inA)

	// Solve the components — serial, or on a small worker pool when the
	// affected set is large. Components are link-disjoint, so both paths
	// perform the identical arithmetic and produce bit-identical rates.
	thresh := is.parThresh
	if thresh == 0 {
		thresh = parThreshDefault
	}
	if ncomp := is.splitComps(); ncomp == 1 {
		is.solveComp(is.compSess[:n], is.seenLink)
	} else if is.shards > 1 && n >= thresh {
		is.solveCompsParallel(ncomp)
	} else {
		for c := 0; c < ncomp; c++ {
			is.solveCompAt(c)
		}
	}

	is.applyRates()
}

// splitComps is the round's one set-up walk over the affected set, in A
// order: it opens each link on first sight, folds every member's current
// holding back into its links' residuals (the components solve against
// capacity net of outsiders only), and union-finds the members into
// link-connected components. It returns the component count. With one
// component, compSess[:n] and seenLink are its members (A positions) and
// links; with more, solveCompAt(c) slices
// component c's out of the bucketed arenas, components numbered by first
// appearance in A order and every list in the order the walk met it.
func (is *IncSolver) splitComps() int {
	n := len(is.inA)
	rg := is.roundGen

	is.aRate = grown(is.aRate, n)
	is.compSess = grown(is.compSess, n)
	is.ufParent = grown(is.ufParent, n)
	for i := 0; i < n; i++ {
		is.ufParent[i] = int32(i)
	}
	seen := grown(is.seenLink, n*sessBlock)
	nl := 0
	ncomp := n
	for i := 0; i < n; i++ {
		s := is.inA[i]
		r := is.sRate[s]
		base := int32(s) * sessBlock
		for j := int8(0); j < is.sN[s]; j++ {
			l := is.sLink[base+int32(j)]
			lk := &is.links[l]
			if lk.round != rg {
				lk.round = rg
				lk.first = int32(i)
				lk.wRem = lk.cap - lk.load + r
				lk.wAct = 1
				seen[nl] = l
				nl++
				continue
			}
			lk.wRem += r
			lk.wAct++
			ra, rb := ufFind(is.ufParent, int32(i)), ufFind(is.ufParent, lk.first)
			if ra != rb {
				if ra < rb {
					is.ufParent[rb] = ra
				} else {
					is.ufParent[ra] = rb
				}
				ncomp--
			}
		}
	}
	seen = seen[:nl]
	is.seenLink = seen

	if ncomp == 1 {
		for i := 0; i < n; i++ {
			is.compSess[i] = int32(i)
		}
		return 1
	}

	// Number components by first appearance in A order.
	is.posComp = grown(is.posComp, n)
	is.rootComp = grown(is.rootComp, n)
	for i := 0; i < n; i++ {
		is.rootComp[i] = -1
	}
	next := int32(0)
	for i := 0; i < n; i++ {
		r := ufFind(is.ufParent, int32(i))
		if is.rootComp[r] < 0 {
			is.rootComp[r] = next
			next++
		}
		is.posComp[i] = is.rootComp[r]
	}

	// Bucket A positions and first-seen links by component, each at its exact
	// size: count, prefix-sum, fill with compCnt as the cursor.
	is.compOffs = grown(is.compOffs, ncomp+1)
	is.compLOff = grown(is.compLOff, ncomp+1)
	is.compCnt = grown(is.compCnt, ncomp)
	is.compLink = grown(is.compLink, nl)
	for c := 0; c <= ncomp; c++ {
		is.compOffs[c], is.compLOff[c] = 0, 0
	}
	for i := 0; i < n; i++ {
		is.compOffs[is.posComp[i]+1]++
	}
	for _, l := range seen {
		is.compLOff[is.posComp[is.links[l].first]+1]++
	}
	for c := 0; c < ncomp; c++ {
		is.compOffs[c+1] += is.compOffs[c]
		is.compLOff[c+1] += is.compLOff[c]
	}
	copy(is.compCnt, is.compOffs[:ncomp])
	for i := 0; i < n; i++ {
		c := is.posComp[i]
		is.compSess[is.compCnt[c]] = int32(i)
		is.compCnt[c]++
	}
	copy(is.compCnt, is.compLOff[:ncomp])
	for _, l := range seen {
		c := is.posComp[is.links[l].first]
		is.compLink[is.compCnt[c]] = l
		is.compCnt[c]++
	}
	return ncomp
}

// applyRates folds the round's new rates into the shared link loads and
// leaves the largest new A-rate on each of the round's links in its wRem,
// dead since the solve, for the join scan; wAct = -1 marks it written.
func (is *IncSolver) applyRates() {
	n := len(is.inA)
	for i := 0; i < n; i++ {
		s := is.inA[i]
		nr := is.aRate[i]
		or := is.sRate[s]
		base := int32(s) * sessBlock
		for j := int8(0); j < is.sN[s]; j++ {
			lk := &is.links[is.sLink[base+int32(j)]]
			lk.load += nr - or
			if lk.load < 0 {
				lk.load = 0
			}
			if lk.wAct >= 0 {
				lk.wAct = -1
				lk.wRem = nr
			} else if nr > lk.wRem {
				lk.wRem = nr
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
				is.solveCompAt(c)
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

// solveCompAt solves component c of a multi-component round on its own
// regions of the bucketed arenas — components solve concurrently.
func (is *IncSolver) solveCompAt(c int) {
	lo, hi := is.compLOff[c], is.compLOff[c+1]
	is.solveComp(is.compSess[is.compOffs[c]:is.compOffs[c+1]], is.compLink[lo:hi])
}

// solveComp progressive-fills one affected component against the residual
// capacity splitComps left on its links. Level construction, epsilon policy
// and numerical backstop are waterfiller.solve's, so the incremental solver
// inherits the reference solver's arithmetic.
//
// sess (A positions) and links are the live sets of the type comment.
// Compaction keeps their order because sessions must freeze in A order: only
// then does every wRem -= freezeAt land in the order a full rescan applies
// it, and two members freezing in one iteration on caps that tie within eps,
// not exactly, make that order visible in the result bits.
func (is *IncSolver) solveComp(sess, links []int32) {
	if len(links) == 0 {
		// Only a linkless session, always a component of its own, has no
		// links: it gets its cap, and an uncapped one gets 0.
		ai := sess[0]
		cp := is.sCap[is.inA[ai]]
		if cp >= hugeCap {
			cp = 0
		}
		is.aRate[ai] = cp
		return
	}
	for {
		level := math.Inf(1)
		// One pass drops the links whose last member froze, stores each
		// survivor's fair share in its record, and takes the minimum.
		w := 0
		for _, l := range links {
			if lk := &is.links[l]; lk.wAct > 0 {
				lk.wShare = lk.wRem / float64(lk.wAct)
				links[w] = l
				w++
				if lk.wShare < level {
					level = lk.wShare
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
		// Decide every live member's fate before touching a link: aRate takes
		// the freezing rate, or -1 (no rate is negative) to stay live. A live
		// member's links are all live, so each wShare it reads is this
		// iteration's.
		frozen := 0
		for _, ai := range sess {
			s := is.inA[ai]
			freezeAt := -1.0
			if cp := is.sCap[s]; cp <= level+eps {
				freezeAt = cp
			} else {
				base := int32(s) * sessBlock
				for j := int8(0); j < is.sN[s]; j++ {
					if is.links[is.sLink[base+int32(j)]].wShare <= level+eps {
						freezeAt = level
						break
					}
				}
			}
			is.aRate[ai] = freezeAt
			if freezeAt >= 0 {
				frozen++
			}
		}
		if frozen == len(sess) {
			// Everyone froze: nobody is left to read the residuals.
			return
		}
		if frozen == 0 {
			// Numerical backstop, as in the reference solver.
			for _, ai := range sess {
				is.aRate[ai] = level
			}
			return
		}
		w = 0
		for _, ai := range sess {
			freezeAt := is.aRate[ai]
			if freezeAt < 0 {
				sess[w] = ai
				w++
				continue
			}
			s := is.inA[ai]
			base := int32(s) * sessBlock
			for j := int8(0); j < is.sN[s]; j++ {
				lk := &is.links[is.sLink[base+int32(j)]]
				lk.wRem -= freezeAt
				if lk.wRem < 0 {
					lk.wRem = 0
				}
				lk.wAct--
			}
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
		lk := &is.links[l]
		satA := lk.strictSat()
		satB := lk.satB
		if !satA && !satB {
			continue // link constrains nobody, before or after
		}
		hasA := lk.round == rg // an A-session crosses it: applyRates left lm
		lm := lk.wRem
		for e := lk.head; e >= 0; e = is.eNext[e] {
			s := e / sessBlock
			if is.sStamp[s] == is.gen {
				continue // already affected
			}
			r := is.sRate[s]
			join := false
			if hasA && satA && r > lm+rateEps(r) {
				join = true // J1: outsider holds more than the new fair share
			} else if satB && r < is.sCap[s]-rateEps(is.sCap[s]) &&
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
		lk := &is.links[l]
		if lk.satMark() == lk.qSatB {
			continue
		}
		for e := lk.head; e >= 0; e = is.eNext[e] {
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
			is.links[is.sMark[s]].qCnt--
		}
		if m >= 0 {
			is.links[m].qCnt++
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
		if is.links[l].satMark() {
			if is.marking != nil && is.marking[l] {
				return l
			}
			return -1
		}
	}
	return -1
}

// allocSession returns a free session slot, growing the arenas on demand:
// all eleven slot arrays together, each by one grown step, so n sessions
// cost O(log n) allocations. A slot past the length may hold a previous
// run's values (see Reset); Add sets every field but the stamps, zeroed here.
func (is *IncSolver) allocSession() int32 {
	if n := len(is.freeS); n > 0 {
		s := is.freeS[n-1]
		is.freeS = is.freeS[:n-1]
		return s
	}
	s := int32(len(is.sCap))
	n := int(s) + 1
	is.sCap = grown(is.sCap, n)
	is.sRate = grown(is.sRate, n)
	is.sN = grown(is.sN, n)
	is.sAlive = grown(is.sAlive, n)
	is.sMark = grown(is.sMark, n)
	is.sStamp = grown(is.sStamp, n)
	is.mStamp = grown(is.mStamp, n)
	is.lStamp = grown(is.lStamp, n)
	is.sLink = grown(is.sLink, n*sessBlock)
	is.eNext = grown(is.eNext, n*sessBlock)
	is.ePrev = grown(is.ePrev, n*sessBlock)
	is.sStamp[s], is.mStamp[s], is.lStamp[s] = 0, 0, 0
	return s
}

// grown returns s extended to length n, reusing capacity. Growth is one
// allocation — appending element by element would reallocate and copy a
// fabric-sized slice a dozen times on the way up — of exactly n on a cold
// slice (Reset's per-link arrays), and of at least twice the old capacity on
// a warm one, so the per-commit scratch that creeps up with the affected set,
// and the session slots added one at a time, grow amortized.
func grown[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	g := make([]T, n, max(n, 2*cap(s)))
	copy(g, s[:cap(s)])
	return g
}
