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
// Layout. What persists about a link is one 32-byte linkRec — capacity, load,
// intrusive session list, standing-queue count, commit stamp and workspace
// index — so a pass that visits a link touches one record. A session's rate,
// cap and commit stamps are one sessRec, so the join scan's outsider test reads
// one record; the rest of a session is slot-allocated structure-of-arrays
// (sN, sMark, ...), grown all together by doubling, and each link's list
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
// Workspace. The rounds of one commit run on a dense copy of A (workspace):
// a member's cap, holding and path are gathered once, by the set-up walk of
// the first round it is in, and the links its path crosses are renumbered
// densely in first-seen order (a link's loc). A only grows within a commit,
// so every round walks A in the same order, meets the dense links in index
// order, and, past the gathering, touches neither the link records nor the
// session arrays until it writes each link's load back once at its end.
//
// Every round takes one path, a lone session's as much as a sprayed
// transfer's, and walks A's (member, dense link) pairs three times:
//
//   - splitComps, in A order, gathers the members new to A, opens every
//     dense link on first sight (residual = capacity net of load), folds
//     each member's current holding back into its links' residuals and
//     counts it active there — the component solves against capacity net of
//     outsiders only — and unions the members that share a link. A link lies in exactly one component, so
//     the holdings reach each link in the order a per-component pass would add
//     them. When the union-find ends in one component (every sprayed commit)
//     A and the dense links are the member and link lists as they stand;
//     otherwise both are bucketed by component, numbered by first appearance,
//     at exact size.
//   - solveComp progressive-fills each component over live sets: the members
//     still unfrozen and the links that still carry one, compacted in place
//     and in order after every bottleneck iteration, each live link's share
//     divided out once per iteration (wsLink.share). An iteration decides who
//     freezes before it touches a link: a member freezes at its cap, or at
//     the level when one of its links' share is within eps of it. So the
//     iteration that freezes every live member — most of them — ends the
//     solve without the residual updates nobody would read. A linkless
//     session, a component of its own, just takes its cap (0 when uncapped).
//     Components are link-disjoint, so solving them on parallel workers
//     performs the identical floating-point arithmetic as solving them in
//     sequence: results are bit-identical at any shard count, which the
//     solver-shards digest test pins the way byteident pins the packet
//     engine.
//   - applyRates moves the loads, writes each one back to its link record,
//     and leaves each dense link's largest new A-rate for the join scan in
//     its rem, which the solve has finished with. Every dense link carries an
//     A-session, so a link carries one exactly when its loc is set.
//
// The rates are bit for bit those of the set-up-pass, rescan-everything loop
// this replaced, which the oracle in incsolver_oracle_test.go keeps running
// on scratch of its own.
//
// The steady-state Commit path performs zero heap allocations: all
// link/session/workspace state lives in reusable arenas that only grow on
// first use. (The parallel dispatch path, when a large multi-component
// affected set engages it, spends a few allocations on goroutine bring-up.)
type IncSolver struct {
	links   []linkRec
	marking []bool // link can hold a visible standing queue; nil = none

	// Session state (slot-allocated; sLink holds sessBlock entries each).
	sess   []sessRec
	sN     []int8
	sAlive []bool
	sMark  []int32  // current standing-queue link, -1 when none
	lStamp []uint32 // session's link set changed this commit
	sLink  []int32
	eNext  []int32
	ePrev  []int32
	freeS  []int32

	// Commit staging: the links touched this commit in first-touch order,
	// beside the saturation each one had at its first touch, before any
	// mutation, and the affected sessions in staging/join order.
	gen        uint32
	pending    bool
	considered []int32
	satB       []bool // strictly saturated
	qSatB      []bool // standing-queue-saturated (satMark)
	inA        []int32

	ws workspace

	// Round scratch, all of it scaling with the affected set, not the fabric:
	// the comp* arrays list A positions and dense links by component.
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

// linkRec is what persists about one link, in 32 bytes. Nothing the record
// can derive is stored: a link's list is empty exactly when head < 0.
type linkRec struct {
	cap  float64 // sanitized capacity: 0 <= cap <= hugeCap
	load float64 // sum of session rates crossing the link

	head int32 // first intrusive-list entry, -1 when empty
	qCnt int32 // sessions whose standing-queue mark is this link

	tStamp uint32 // == gen: touched (considered) this commit
	// The link's index in this commit's workspace, -1 when no A member
	// crosses it; live while tStamp == gen (touchLink sets -1).
	loc int32
}

// sessRec is a session's rate, cap and commit stamps.
type sessRec struct {
	rate   float64
	cap    float64
	stamp  uint32 // == gen: staged into A this commit
	mStamp uint32 // == gen: remarked this commit
}

// workspace is one commit's dense copy of the affected set. mem[i] is A
// member i (inA[i]); its path is path[mem[i].off : mem[i].off+mem[i].n], as
// indices into link, whose entries are the links those paths cross in
// first-seen order. It grows by append and is kept across commits and
// Resets.
type workspace struct {
	mem  []wsMember
	path []int32
	link []wsLink
}

// wsMember is an A member as gathered when it entered A.
type wsMember struct {
	cap  float64 // session cap
	rate float64 // holding: the rate its links' loads include
	next float64 // the round's new rate; -1 while live in the fill
	off  int32
	n    int32
}

// wsLink is a dense link of the workspace. rem and share are the round's
// fill scratch; after applyRates, rem holds the link's largest new A-rate,
// which is what joinScan reads.
type wsLink struct {
	cap   float64
	load  float64 // the record's load, written back every round
	rem   float64 // capacity left to the component's unfrozen members
	share float64 // rem / act as of the current bottleneck iteration
	act   int32   // unfrozen member entries on the link
	first int32   // A position of the first member that crossed it
	id    int32   // index into IncSolver.links
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
	is.sess = is.sess[:0]
	is.sN = is.sN[:0]
	is.sAlive = is.sAlive[:0]
	is.sMark = is.sMark[:0]
	is.lStamp = is.lStamp[:0]
	is.sLink = is.sLink[:0]
	is.eNext = is.eNext[:0]
	is.ePrev = is.ePrev[:0]
	is.freeS = is.freeS[:0]
	is.gen = 0
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
func (is *IncSolver) Rate(s int32) float64 { return is.sess[s].rate }

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
		for i := range is.sess {
			is.sess[i].stamp = 0
			is.sess[i].mStamp = 0
			is.lStamp[i] = 0
		}
		is.gen = 1
	}
	is.considered = is.considered[:0]
	is.satB = is.satB[:0]
	is.qSatB = is.qSatB[:0]
	is.inA = is.inA[:0]
	is.ws.mem = is.ws.mem[:0]
	is.ws.path = is.ws.path[:0]
	is.ws.link = is.ws.link[:0]
}

// touchLink marks l considered this commit, capturing its pre-event
// saturation state and clearing its workspace index the first time. Loads
// only ever change on touched links, so a first touch always observes the
// pre-commit load.
func (is *IncSolver) touchLink(l int32) {
	lk := &is.links[l]
	if lk.tStamp == is.gen {
		return
	}
	lk.tStamp = is.gen
	lk.loc = -1
	is.considered = append(is.considered, l)
	is.satB = append(is.satB, lk.strictSat())
	is.qSatB = append(is.qSatB, lk.satMark())
}

// stageSession puts session s into the affected set (once per commit).
func (is *IncSolver) stageSession(s int32) {
	if is.sess[s].stamp == is.gen {
		return
	}
	is.sess[s].stamp = is.gen
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
	is.sess[s].cap = cap
	is.sess[s].rate = 0
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
	r := is.sess[s].rate
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
	is.sess[s].rate = 0
	is.freeS = append(is.freeS, s)
}

// SetCap restages session s with a new rate cap.
func (is *IncSolver) SetCap(s int32, cap float64) {
	if cap <= 0 || math.IsNaN(cap) || math.IsInf(cap, 1) {
		cap = hugeCap
	}
	if cap == is.sess[s].cap {
		return
	}
	is.stage()
	is.sess[s].cap = cap
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
	is.sess[s].rate = 0
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

// solveRound re-waterfills the current affected set: split into connected
// components, solve each against the outsiders' residual capacity, then
// apply the new rates to the loads.
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
		is.solveComp(is.compSess[:n], is.compLink[:len(is.ws.link)])
	} else if is.shards > 1 && n >= thresh {
		is.solveCompsParallel(ncomp)
	} else {
		for c := 0; c < ncomp; c++ {
			is.solveCompAt(c)
		}
	}

	is.applyRates()
}

// splitComps is the round's one set-up walk over A, in A order: it opens each
// dense link on first sight, folds every member's current holding back into
// its links' residuals (the components solve against capacity net of
// outsiders only), and union-finds the members into link-connected
// components. It returns the component count. With one component,
// compSess[:n] and compLink[:nl] are its members (A positions) and dense
// links; with more, solveCompAt(c) slices component c's out of the bucketed
// arenas, components numbered by first appearance in A order and every list
// in the order the walk met it.
//
// The walk also gathers each member that entered A since the last round —
// staged, or pulled in by the join scan — into the workspace: cap, holding
// and path, each link numbered densely the first time a member crosses it.
// Every link of an A member has been touched this commit, and its first touch
// cleared its loc, so a set loc is this commit's number. The links are thus
// numbered in this walk's order, and every round's walk meets them in index
// order: a link is new to the round exactly when its index is the count
// opened so far. Gathering happens only here, so during the join scan a set
// loc still means "an A-session crossed this link in the round just solved".
func (is *IncSolver) splitComps() int {
	n := len(is.inA)
	mem, path, link := is.ws.mem, is.ws.path, is.ws.link

	is.compSess = grown(is.compSess, n)
	is.ufParent = grown(is.ufParent, n)
	for i := 0; i < n; i++ {
		is.ufParent[i] = int32(i)
	}
	open := int32(0)
	ncomp := n
	for i := int32(0); int(i) < n; i++ {
		if int(i) == len(mem) {
			// A member that entered A since the last round: gather it.
			s := is.inA[i]
			off := int32(len(path))
			base := s * sessBlock
			for _, l := range is.sLink[base : base+int32(is.sN[s])] {
				lk := &is.links[l]
				if lk.loc < 0 {
					lk.loc = int32(len(link))
					// Appended zero and filled in place: a composite literal
					// is built on the stack, and copying it out stalls.
					link = append(link, wsLink{})
					k := &link[lk.loc]
					k.cap, k.load, k.id = lk.cap, lk.load, l
				}
				path = append(path, lk.loc)
			}
			mem = append(mem, wsMember{})
			m := &mem[i]
			m.cap, m.rate, m.off, m.n = is.sess[s].cap, is.sess[s].rate, off, int32(len(path))-off
		}
		m := &mem[i]
		r := m.rate
		for _, d := range path[m.off : m.off+m.n] {
			k := &link[d]
			if d == open {
				open++
				k.first = i
				k.rem = k.cap - k.load + r
				k.act = 1
				continue
			}
			k.rem += r
			k.act++
			ra, rb := ufFind(is.ufParent, i), ufFind(is.ufParent, k.first)
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
	is.ws.mem, is.ws.path, is.ws.link = mem, path, link
	nl := len(link)
	is.compLink = grown(is.compLink, nl)

	if ncomp == 1 {
		for i := 0; i < n; i++ {
			is.compSess[i] = int32(i)
		}
		for d := 0; d < nl; d++ {
			is.compLink[d] = int32(d)
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

	// Bucket A positions and dense links by component, each at its exact
	// size: count, prefix-sum, fill with compCnt as the cursor.
	is.compOffs = grown(is.compOffs, ncomp+1)
	is.compLOff = grown(is.compLOff, ncomp+1)
	is.compCnt = grown(is.compCnt, ncomp)
	for c := 0; c <= ncomp; c++ {
		is.compOffs[c], is.compLOff[c] = 0, 0
	}
	for i := 0; i < n; i++ {
		is.compOffs[is.posComp[i]+1]++
	}
	for d := range link {
		is.compLOff[is.posComp[link[d].first]+1]++
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
	for d := range link {
		c := is.posComp[link[d].first]
		is.compLink[is.compCnt[c]] = int32(d)
		is.compCnt[c]++
	}
	return ncomp
}

// applyRates folds the round's new rates into the dense loads, writes each
// load back to its link record, and leaves the largest new A-rate on each
// dense link in its rem, dead since the solve, for the join scan.
func (is *IncSolver) applyRates() {
	mem, path, link := is.ws.mem, is.ws.path, is.ws.link
	seen := int32(0) // as in splitComps, the walk meets the links in index order
	for i := range mem {
		m := &mem[i]
		nr, or := m.next, m.rate
		for _, d := range path[m.off : m.off+m.n] {
			k := &link[d]
			k.load += nr - or
			if k.load < 0 {
				k.load = 0
			}
			if d == seen {
				seen++
				k.rem = nr
			} else if nr > k.rem {
				k.rem = nr
			}
		}
		m.rate = nr
		is.sess[is.inA[i]].rate = nr
	}
	for d := range link {
		is.links[link[d].id].load = link[d].load
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
// capacity splitComps left on its dense links. Level construction, epsilon
// policy and numerical backstop are waterfiller.solve's, so the incremental
// solver inherits the reference solver's arithmetic.
//
// sess (A positions) and links (dense) are the live sets of the type comment.
// Compaction keeps their order because sessions must freeze in A order: only
// then does every rem -= freezeAt land in the order a full rescan applies
// it, and two members freezing in one iteration on caps that tie within eps,
// not exactly, make that order visible in the result bits.
func (is *IncSolver) solveComp(sess, links []int32) {
	mem, path, link := is.ws.mem, is.ws.path, is.ws.link
	if len(links) == 0 {
		// Only a linkless session, always a component of its own, has no
		// links: it gets its cap, and an uncapped one gets 0.
		m := &mem[sess[0]]
		m.next = m.cap
		if m.cap >= hugeCap {
			m.next = 0
		}
		return
	}
	for {
		level := math.Inf(1)
		// One pass drops the links whose last member froze, stores each
		// survivor's fair share, and takes the minimum.
		w := 0
		for _, d := range links {
			if k := &link[d]; k.act > 0 {
				k.share = k.rem / float64(k.act)
				links[w] = d
				w++
				if k.share < level {
					level = k.share
				}
			}
		}
		links = links[:w]
		for _, ai := range sess {
			if cp := mem[ai].cap; cp < level {
				level = cp
			}
		}
		if level < 0 {
			level = 0
		}
		eps := level*1e-9 + 1e-15
		// Decide every live member's fate before touching a link: next takes
		// the freezing rate, or -1 (no rate is negative) to stay live. A live
		// member's links are all live, so each share it reads is this
		// iteration's.
		frozen := 0
		for _, ai := range sess {
			m := &mem[ai]
			freezeAt := -1.0
			if m.cap <= level+eps {
				freezeAt = m.cap
			} else {
				for _, d := range path[m.off : m.off+m.n] {
					if link[d].share <= level+eps {
						freezeAt = level
						break
					}
				}
			}
			m.next = freezeAt
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
				mem[ai].next = level
			}
			return
		}
		w = 0
		for _, ai := range sess {
			m := &mem[ai]
			if m.next < 0 {
				sess[w] = ai
				w++
				continue
			}
			for _, d := range path[m.off : m.off+m.n] {
				k := &link[d]
				k.rem -= m.next
				if k.rem < 0 {
					k.rem = 0
				}
				k.act--
			}
		}
		sess = sess[:w]
	}
}

// joinScan applies the J1/J2 rules over every considered link, pulling
// outsiders whose bottleneck certificate the round disturbed into the
// affected set. Returns whether anything joined (another round is needed).
// A joiner's links are touched here and gathered by the next round's set-up.
func (is *IncSolver) joinScan() bool {
	joined := false
	for k, l := range is.considered {
		lk := &is.links[l]
		satA := lk.strictSat()
		satB := is.satB[k]
		if !satA && !satB {
			continue // link constrains nobody, before or after
		}
		hasA := lk.loc >= 0 // an A-session crosses it: applyRates left lm
		var lm float64
		if hasA {
			lm = is.ws.link[lk.loc].rem
		}
		for e := lk.head; e >= 0; e = is.eNext[e] {
			s := e / sessBlock
			sr := &is.sess[s]
			if sr.stamp == is.gen {
				continue // already affected
			}
			r := sr.rate
			join := false
			if hasA && satA && r > lm+rateEps(r) {
				join = true // J1: outsider holds more than the new fair share
			} else if satB && r < sr.cap-rateEps(sr.cap) &&
				(!satA || (hasA && lm > r+rateEps(r))) {
				join = true // J2: capacity freed (or share grew) under the outsider
			}
			if !join {
				continue
			}
			is.stageSession(s)
			base := s * sessBlock
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
	for k, l := range is.considered {
		if is.links[l].satMark() == is.qSatB[k] {
			continue
		}
		for e := is.links[l].head; e >= 0; e = is.eNext[e] {
			is.remark(e / sessBlock)
		}
	}
}

// remark recomputes one session's standing-queue mark (once per commit).
func (is *IncSolver) remark(s int32) {
	if is.sess[s].mStamp == is.gen {
		return
	}
	is.sess[s].mStamp = is.gen
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
// all eight slot arrays together, each by one grown step, so n sessions
// cost O(log n) allocations. A slot past the length may hold a previous
// run's values (see Reset); Add sets every field but the stamps, zeroed here.
func (is *IncSolver) allocSession() int32 {
	if n := len(is.freeS); n > 0 {
		s := is.freeS[n-1]
		is.freeS = is.freeS[:n-1]
		return s
	}
	s := int32(len(is.sess))
	n := int(s) + 1
	is.sess = grown(is.sess, n)
	is.sN = grown(is.sN, n)
	is.sAlive = grown(is.sAlive, n)
	is.sMark = grown(is.sMark, n)
	is.lStamp = grown(is.lStamp, n)
	is.sLink = grown(is.sLink, n*sessBlock)
	is.eNext = grown(is.eNext, n*sessBlock)
	is.ePrev = grown(is.ePrev, n*sessBlock)
	is.sess[s].stamp, is.sess[s].mStamp, is.lStamp[s] = 0, 0, 0
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
