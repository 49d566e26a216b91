package fluid

import (
	"math"
	"testing"

	"flowbender/internal/sim"
)

// oracleSolver is an IncSolver whose rounds are solved the way this package
// solved them before the live-set loop and the fused set-up walk: split into
// components, then per component a set-up pass that opens the links and folds
// the members' holdings back, then a progressive-filling loop that rescans the
// whole component every iteration. It exists to pin the replacements bit for
// bit: same mutation history in, the same float64 out for every session after
// every commit.
//
// It shares the staging, the join scan, the mark pass and applyRates with the
// solver it embeds, and nothing of the round's arithmetic: the residuals,
// active counts, bottleneck tags, first-seen stamps and component arenas
// below are its own, stamped by its own 64-bit round counter (which never
// wraps). It fills only the workspace fields the shared code reads, and
// rebuilds them every round from the session arrays rather than gathering a
// member once: each link its round meets gets a dense index (loc, joinScan's
// "an A-session crosses it"), its id and load, and each member its holding
// and path — what applyRates moves the loads with. The new rates it writes
// into each member's next.
type oracleSolver struct {
	IncSolver

	round  uint64
	iters  uint64 // bottleneck iterations so far, also the bottleneck tag
	wSeen  []uint64
	wRem   []float64
	wAct   []int32
	wBneck []uint64
	compS  []uint64
	compOf []int32

	ufParent []int32
	posComp  []int32
	rootComp []int32
	compCnt  []int32
	compSess []int32
	compOffs []int32
	compLOff []int32
	compLink []int32
	aFrozen  []bool

	firstSeen []int32 // the round's links in first-seen order, for shapes only
	shapes    roundShapes
}

// roundShapes counts what the oracle's rounds and iterations looked like, so
// a history can prove it reached the regimes the shipped round tells apart.
type roundShapes struct {
	lone        int // rounds of a single session
	oneComp     int // rounds of several sessions that are one component
	multiComp   int // rounds of several components
	interleaved int // ... whose first-seen link order mixes the components
	allFreeze   int // iterations that froze every unfrozen member
	partial     int // iterations that froze some and left some
	backstop    int // iterations that froze nobody
}

func (a roundShapes) minus(b roundShapes) roundShapes {
	return roundShapes{a.lone - b.lone, a.oneComp - b.oneComp, a.multiComp - b.multiComp, a.interleaved - b.interleaved,
		a.allFreeze - b.allFreeze, a.partial - b.partial, a.backstop - b.backstop}
}

// Reset sizes the oracle's own per-link scratch beside the embedded solver's.
func (o *oracleSolver) Reset(capacity []float64, marking []bool) {
	o.IncSolver.Reset(capacity, marking)
	n := len(capacity)
	o.round = 0
	o.wSeen = make([]uint64, n)
	o.wRem = make([]float64, n)
	o.wAct = make([]int32, n)
	o.wBneck = make([]uint64, n)
	o.compS = make([]uint64, n)
	o.compOf = make([]int32, n)
}

// Commit is IncSolver.Commit with every round routed through the oracle's own
// split and solveCompRescan.
func (o *oracleSolver) Commit() {
	is := &o.IncSolver
	if !is.pending {
		return
	}
	w := 0
	for _, s := range is.inA {
		if is.sAlive[s] {
			is.inA[w] = s
			w++
		}
	}
	is.inA = is.inA[:w]
	for {
		o.round++
		if len(is.inA) > 0 {
			ncomp := o.splitComps()
			for c := 0; c < ncomp; c++ {
				o.solveCompRescan(c)
			}
			is.applyRates()
		}
		if !is.joinScan() {
			break
		}
	}
	is.markPass()
	is.pending = false
}

// splitComps is the splitComps this package shipped before the fused walk,
// on the oracle's arrays: union-find over shared links, components numbered by
// first appearance in A order, regions of sessBlock link slots per member.
// The same walk refills the shared workspace from scratch.
func (o *oracleSolver) splitComps() int {
	is := &o.IncSolver
	ws := &is.ws
	n := len(is.inA)
	rg := o.round

	o.ufParent = grown(o.ufParent, n)
	for i := 0; i < n; i++ {
		o.ufParent[i] = int32(i)
	}
	o.firstSeen = o.firstSeen[:0]
	ws.mem, ws.path, ws.link = ws.mem[:0], ws.path[:0], ws.link[:0]
	for i := 0; i < n; i++ {
		s := is.inA[i]
		base := int32(s) * sessBlock
		ws.mem = append(ws.mem, wsMember{rate: is.sess[s].rate, off: int32(len(ws.path)), n: int32(is.sN[s])})
		for j := int8(0); j < is.sN[s]; j++ {
			l := is.sLink[base+int32(j)]
			if o.compS[l] != rg {
				o.compS[l] = rg
				o.compOf[l] = int32(i)
				is.links[l].loc = int32(len(ws.link))
				ws.link = append(ws.link, wsLink{load: is.links[l].load, id: l})
				ws.path = append(ws.path, is.links[l].loc)
				o.firstSeen = append(o.firstSeen, l)
				continue
			}
			ws.path = append(ws.path, is.links[l].loc)
			ra, rb := ufFind(o.ufParent, int32(i)), ufFind(o.ufParent, o.compOf[l])
			if ra != rb {
				if ra < rb {
					o.ufParent[rb] = ra
				} else {
					o.ufParent[ra] = rb
				}
			}
		}
	}

	o.posComp = grown(o.posComp, n)
	o.rootComp = grown(o.rootComp, n)
	for i := 0; i < n; i++ {
		o.rootComp[i] = -1
	}
	ncomp := 0
	for i := 0; i < n; i++ {
		r := ufFind(o.ufParent, int32(i))
		if o.rootComp[r] < 0 {
			o.rootComp[r] = int32(ncomp)
			ncomp++
		}
		o.posComp[i] = o.rootComp[r]
	}
	o.compCnt = grown(o.compCnt, ncomp)
	for c := 0; c < ncomp; c++ {
		o.compCnt[c] = 0
	}
	for i := 0; i < n; i++ {
		o.compCnt[o.posComp[i]]++
	}
	o.compOffs = grown(o.compOffs, ncomp+1)
	o.compLOff = grown(o.compLOff, ncomp+1)
	o.compOffs[0], o.compLOff[0] = 0, 0
	for c := 0; c < ncomp; c++ {
		o.compOffs[c+1] = o.compOffs[c] + o.compCnt[c]
		o.compLOff[c+1] = o.compLOff[c] + o.compCnt[c]*sessBlock
	}
	o.compSess = grown(o.compSess, n)
	o.compLink = grown(o.compLink, n*sessBlock)
	for c := 0; c < ncomp; c++ {
		o.compCnt[c] = o.compOffs[c]
	}
	for i := 0; i < n; i++ {
		c := o.posComp[i]
		o.compSess[o.compCnt[c]] = int32(i)
		o.compCnt[c]++
	}
	o.aFrozen = grown(o.aFrozen, n)

	switch {
	case ncomp > 1:
		o.shapes.multiComp++
		last := int32(0)
		for _, l := range o.firstSeen {
			c := o.posComp[o.compOf[l]]
			if c < last {
				o.shapes.interleaved++
				break
			}
			last = c
		}
	case n > 1:
		o.shapes.oneComp++
	default:
		o.shapes.lone++
	}
	return ncomp
}

// solveCompRescan is the solveComp this package shipped before the live-set
// loop, verbatim but for whose arrays it works on: a set-up pass over the
// component's members, then bottleneck iterations that each rescan its whole
// link list (dividing twice per link) and its whole session list, skipping
// what is already frozen, and update the residuals of everything they freeze.
func (o *oracleSolver) solveCompRescan(c int) {
	is := &o.IncSolver
	mem := is.ws.mem
	rg := o.round
	sess := o.compSess[o.compOffs[c]:o.compOffs[c+1]]
	links := o.compLink[o.compLOff[c]:o.compLOff[c]:o.compLOff[c+1]]

	unfrozen := 0
	for _, ai := range sess {
		s := is.inA[ai]
		if is.sN[s] == 0 {
			o.aFrozen[ai] = true
			if is.sess[s].cap >= hugeCap {
				mem[ai].next = 0
			} else {
				mem[ai].next = is.sess[s].cap
			}
			continue
		}
		o.aFrozen[ai] = false
		mem[ai].next = 0
		unfrozen++
		base := int32(is.inA[ai]) * sessBlock
		for j := int8(0); j < is.sN[s]; j++ {
			l := is.sLink[base+int32(j)]
			if o.wSeen[l] != rg {
				o.wSeen[l] = rg
				o.wRem[l] = is.links[l].cap - is.links[l].load
				o.wAct[l] = 0
				links = append(links, l)
			}
			o.wRem[l] += is.sess[s].rate
			o.wAct[l]++
		}
	}

	for unfrozen > 0 {
		o.iters++
		tag := o.iters
		level := math.Inf(1)
		for _, l := range links {
			if o.wAct[l] > 0 {
				if v := o.wRem[l] / float64(o.wAct[l]); v < level {
					level = v
				}
			}
		}
		for _, ai := range sess {
			if !o.aFrozen[ai] && is.sess[is.inA[ai]].cap < level {
				level = is.sess[is.inA[ai]].cap
			}
		}
		if level < 0 {
			level = 0
		}
		eps := level*1e-9 + 1e-15
		for _, l := range links {
			if o.wAct[l] > 0 && o.wRem[l]/float64(o.wAct[l]) <= level+eps {
				o.wBneck[l] = tag
			}
		}
		froze := 0
		for _, ai := range sess {
			if o.aFrozen[ai] {
				continue
			}
			s := is.inA[ai]
			base := int32(s) * sessBlock
			freezeAt := -1.0
			if is.sess[s].cap <= level+eps {
				freezeAt = is.sess[s].cap
			} else {
				for j := int8(0); j < is.sN[s]; j++ {
					if o.wBneck[is.sLink[base+int32(j)]] == tag {
						freezeAt = level
						break
					}
				}
			}
			if freezeAt < 0 {
				continue
			}
			o.aFrozen[ai] = true
			mem[ai].next = freezeAt
			froze++
			for j := int8(0); j < is.sN[s]; j++ {
				l := is.sLink[base+int32(j)]
				o.wRem[l] -= freezeAt
				if o.wRem[l] < 0 {
					o.wRem[l] = 0
				}
				o.wAct[l]--
			}
		}
		switch {
		case froze == 0:
			o.shapes.backstop++
			for _, ai := range sess {
				if !o.aFrozen[ai] {
					o.aFrozen[ai] = true
					mem[ai].next = level
				}
			}
			return
		case froze == unfrozen:
			o.shapes.allFreeze++
		default:
			o.shapes.partial++
		}
		unfrozen -= froze
	}
}

// lockstep drives the shipped solver (once per given shard count, parallel
// dispatch forced) and the rescan oracle through one mutation history.
// Slot allocation is deterministic, so the same calls return the same
// session ids on every solver.
type lockstep struct {
	t      *testing.T
	subj   []*IncSolver
	oracle oracleSolver
	live   []modelSess
	// maxIters is the most bottleneck iterations any single oracle commit
	// took: the histories must leave the one-iteration regime to mean anything.
	maxIters uint64
}

func newLockstep(t *testing.T, caps []float64, shards ...int) *lockstep {
	ls := &lockstep{t: t}
	marking := make([]bool, len(caps)) // every link a marking queue
	for i := range marking {
		marking[i] = true
	}
	for _, shards := range shards {
		is := &IncSolver{}
		is.SetShards(shards)
		is.parThresh = 1
		is.Reset(caps, marking)
		ls.subj = append(ls.subj, is)
	}
	ls.oracle.Reset(caps, marking)
	return ls
}

func (ls *lockstep) add(links []int32, cap float64) int {
	id := ls.oracle.Add(links, cap)
	for _, is := range ls.subj {
		if got := is.Add(links, cap); got != id {
			ls.t.Fatalf("slot allocation diverged: %d vs oracle %d", got, id)
		}
	}
	ls.live = append(ls.live, modelSess{id: id, links: links, cap: cap})
	return len(ls.live) - 1
}

func (ls *lockstep) remove(k int) {
	id := ls.live[k].id
	ls.oracle.Remove(id)
	for _, is := range ls.subj {
		is.Remove(id)
	}
	ls.live = append(ls.live[:k], ls.live[k+1:]...)
}

func (ls *lockstep) setCap(k int, cap float64) {
	ls.live[k].cap = cap
	ls.oracle.SetCap(ls.live[k].id, cap)
	for _, is := range ls.subj {
		is.SetCap(ls.live[k].id, cap)
	}
}

func (ls *lockstep) setLinks(k int, links []int32) {
	ls.live[k].links = links
	ls.oracle.SetLinks(ls.live[k].id, links)
	for _, is := range ls.subj {
		is.SetLinks(ls.live[k].id, links)
	}
}

// commit commits everywhere and requires every live session's rate to be
// the oracle's float64, bit for bit, and every link's standing queue the
// oracle's, at every shard count.
func (ls *lockstep) commit() {
	ls.t.Helper()
	before := ls.oracle.iters
	ls.oracle.Commit()
	if n := ls.oracle.iters - before; n > ls.maxIters {
		ls.maxIters = n
	}
	for _, is := range ls.subj {
		is.Commit()
		for i, m := range ls.live {
			got, want := is.Rate(m.id), ls.oracle.Rate(m.id)
			if math.Float64bits(got) != math.Float64bits(want) {
				ls.t.Fatalf("shards=%d session %d (slot %d, links %v cap %v): rate %v, rescan oracle %v (bitwise)",
					is.shards, i, m.id, m.links, m.cap, got, want)
			}
		}
		for l := int32(0); int(l) < len(is.links); l++ {
			if got, want := is.Queued(l), ls.oracle.Queued(l); got != want {
				ls.t.Fatalf("shards=%d link %d: standing queue %v, rescan oracle %v", is.shards, l, got, want)
			}
		}
	}
}

// sprayFabric is a two-stage fabric in miniature: one up-link and one
// down-link per host, and a pool of middle links between them. Capacities
// come from a small palette so equal shares tie, with a few dead links.
type sprayFabric struct {
	hosts, mids int
	caps        []float64
}

func newSprayFabric(rng *sim.RNG, hosts, mids int) sprayFabric {
	f := sprayFabric{hosts: hosts, mids: mids, caps: make([]float64, 2*hosts+mids)}
	palette := []float64{1e9, 1e9, 2.5e9, 1e10, 1e10, 4e10}
	for i := range f.caps {
		f.caps[i] = palette[rng.Intn(len(palette))]
		if i >= 2*hosts && rng.Intn(12) == 0 {
			f.caps[i] = 0
		}
	}
	return f
}

func (f sprayFabric) up(h int) int32   { return int32(h) }
func (f sprayFabric) down(h int) int32 { return int32(f.hosts + h) }
func (f sprayFabric) mid(rng *sim.RNG) int32 {
	return int32(2*f.hosts + rng.Intn(f.mids))
}

// nearTieCap draws a session cap from a short palette, nudged by a few parts
// in 1e10. Members freezing on their caps in one iteration then subtract
// values that tie within the solver's 1e-9 slack without being equal — the
// one place where the order of the wRem updates reaches the result bits, so
// the one place an order-breaking compaction would show.
func nearTieCap(rng *sim.RNG) float64 {
	palette := []float64{3e7, 1.1e8, 2.5e8}
	return palette[rng.Intn(len(palette))] * (1 + float64(rng.Intn(8))*1e-10)
}

// sprayHistory replays a spray-shaped mutation history: transfers of k
// sessions sharing their first and last link over different middles, capped
// and uncapped members, single-path cross traffic over the middles,
// sessions that cross one link twice, reroutes, cap changes and whole
// transfers leaving — several mutations per commit. check runs after every
// commit.
func sprayHistory(rng *sim.RNG, f sprayFabric, ls *lockstep, steps int, check func()) {
	type xfer struct{ ids []int32 }
	var xfers []xfer
	find := func(id int32) int {
		for k, m := range ls.live {
			if m.id == id {
				return k
			}
		}
		return -1
	}
	for step := 0; step < steps; step++ {
		for b := 1 + rng.Intn(3); b > 0; b-- {
			switch op := rng.Intn(12); {
			case op < 5 || len(xfers) == 0: // sprayed transfer
				src, dst := rng.Intn(f.hosts), rng.Intn(f.hosts)
				k := 2 + rng.Intn(7)
				var cap float64 // uncapped
				if rng.Intn(2) == 0 {
					cap = nearTieCap(rng)
				}
				var x xfer
				for j := 0; j < k; j++ {
					c := cap
					if c > 0 && rng.Intn(2) == 0 {
						c = nearTieCap(rng) // a member capped on its own
					}
					links := []int32{f.up(src), f.mid(rng), f.mid(rng), f.down(dst)}
					x.ids = append(x.ids, ls.live[ls.add(links, c)].id)
				}
				xfers = append(xfers, x)
			case op < 7: // cross traffic on the middles
				x := xfer{ids: []int32{ls.live[ls.add([]int32{f.mid(rng), f.mid(rng)}, 0)].id}}
				xfers = append(xfers, x)
			case op == 7: // a path that crosses its first link again
				u := f.up(rng.Intn(f.hosts))
				x := xfer{ids: []int32{ls.live[ls.add([]int32{u, f.mid(rng), u, f.down(rng.Intn(f.hosts))}, 0)].id}}
				xfers = append(xfers, x)
			case op < 10: // a transfer leaves
				i := rng.Intn(len(xfers))
				for _, id := range xfers[i].ids {
					ls.remove(find(id))
				}
				xfers = append(xfers[:i], xfers[i+1:]...)
			case op == 10: // budget change on every member
				x := xfers[rng.Intn(len(xfers))]
				cap := math.Pow(10, 6+4*rng.Float64())
				for _, id := range x.ids {
					ls.setCap(find(id), cap)
				}
			default: // one member moves to other middles
				x := xfers[rng.Intn(len(xfers))]
				k := find(x.ids[rng.Intn(len(x.ids))])
				old := ls.live[k].links
				ls.setLinks(k, []int32{old[0], f.mid(rng), f.mid(rng), old[len(old)-1]})
			}
		}
		ls.commit()
		check()
	}
}

// commitShaped commits and requires the oracle's rounds and iterations of
// that commit to have had exactly the given shapes: a directed history must
// reach the regime it was written for.
func (ls *lockstep) commitShaped(what string, want roundShapes) {
	ls.t.Helper()
	before := ls.oracle.shapes
	ls.commit()
	if got := ls.oracle.shapes.minus(before); got != want {
		ls.t.Fatalf("%s: commit had shapes %+v, want %+v", what, got, want)
	}
}

// shapesHistory walks the round shapes one commit at a time, on a fabric of
// eight equal links: a one-component round that freezes in one iteration,
// one that freezes over two, a round of two components whose links the set-up
// walk meets alternately (so bucketing the first-seen list has to pull them
// apart), the join rounds each of those sets off, and lone-session rounds —
// uncapped, capped, linkless either way, and over one link twice.
func shapesHistory(t *testing.T, shards ...int) {
	caps := []float64{1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9}
	ls := newLockstep(t, caps, shards...)
	check := func() { checkAgainstWaterfill(t, ls.subj[0], caps, ls.live) }

	// Three uncapped sessions over link 0: one component, everyone freezes at
	// a third of it in the first iteration.
	ls.add([]int32{0, 1}, 0)
	ls.add([]int32{0, 2}, 0)
	ls.add([]int32{0, 3}, 0)
	ls.commitShaped("all-freeze", roundShapes{oneComp: 1, allFreeze: 1})
	check()

	// Two more, one capped far below the share. The first round holds the
	// two newcomers on a link with nothing left (both freeze at 0); J1 pulls
	// the three residents in for a second, where the capped member freezes
	// first and the rest an iteration later.
	ls.add([]int32{0, 4}, 1e8)
	ls.add([]int32{0, 5}, 0)
	ls.commitShaped("partial freeze", roundShapes{oneComp: 2, allFreeze: 2, partial: 1})
	check()

	// Two disjoint pairs staged alternately: a and c meet on link 6, b and d
	// on link 7, and the walk first sees 6, 7, 1, 2 — component 0, 1, 0, 1.
	// The first pair splits link 6 in one iteration; d's cap takes two.
	for len(ls.live) > 0 {
		ls.remove(0)
	}
	ls.commit()
	ls.add([]int32{6}, 0)
	ls.add([]int32{7}, 0)
	ls.add([]int32{6, 1}, 0)
	ls.add([]int32{7, 2}, 3e8)
	ls.commitShaped("interleaved components", roundShapes{multiComp: 1, interleaved: 1, allFreeze: 2, partial: 1})
	check()

	// Lone sessions, each on links nobody else holds, so no round pulls an
	// outsider in: uncapped, capped below its links, linkless uncapped (rate
	// 0) and capped (its cap), and one that crosses a link twice (half of it).
	for len(ls.live) > 0 {
		ls.remove(0)
	}
	ls.commit()
	lone := func(what string, links []int32, cap, want float64, shapes roundShapes) {
		t.Helper()
		k := ls.add(links, cap)
		ls.commitShaped(what, shapes)
		check()
		if got := ls.subj[0].Rate(ls.live[k].id); got != want {
			t.Fatalf("%s: rate %v, want %v", what, got, want)
		}
	}
	lone("lone uncapped", []int32{0, 1}, 0, 1e9, roundShapes{lone: 1, allFreeze: 1})
	lone("lone capped", []int32{2, 3}, 3e8, 3e8, roundShapes{lone: 1, allFreeze: 1})
	lone("linkless uncapped", nil, 0, 0, roundShapes{lone: 1})
	lone("linkless capped", nil, 2e8, 2e8, roundShapes{lone: 1})
	lone("lone over one link twice", []int32{4, 5, 4}, 0, 5e8, roundShapes{lone: 1, allFreeze: 1})
}

// departureHistory is a directed history for the join scan's "an A-session
// crosses this link" test (loc >= 0). A thin session (cap 1e-7) arrives on a
// saturated link and pulls its two residents in (J1); when it leaves, the link
// stays saturated — its rate is below the saturation slack — and the
// departure must pull nobody in: no round at all. The link's record still
// holds the workspace index the arrival's commit gave it, whose last A-rate
// was the fat resident's, above the 2e8 resident's rate; a join scan that
// took that stale index for this commit's would read a rate this commit never
// wrote, or none at all.
func departureHistory(t *testing.T, shards ...int) {
	caps := []float64{1e9, 2e8}
	ls := newLockstep(t, caps, shards...)
	check := func() { checkAgainstWaterfill(t, ls.subj[0], caps, ls.live) }
	ls.add([]int32{0, 1}, 0) // held to 2e8 by link 1
	ls.add([]int32{0}, 0)    // the rest of link 0
	ls.commit()
	check()
	thin := ls.add([]int32{0}, 1e-7)
	ls.commitShaped("thin arrival", roundShapes{lone: 1, oneComp: 1, allFreeze: 2, partial: 2})
	check()
	ls.remove(thin)
	ls.commitShaped("thin departure", roundShapes{})
	check()
}

// TestJoinChainGathersAcrossRounds is a directed history for the commit
// workspace: one commit of four rounds, each of whose joiners brings a link
// no earlier member crossed and crosses one an earlier member brought. Two
// copies of a chain sit on disjoint links, caps scaled by 2.5, so every round
// has two components and the four-shard solver dispatches them in parallel.
// Per chain, links a, b, c, d carry X1 over (a, b), X2 over (b, c) and X3
// over (c, d) at 0.5, 0.5 and 1 Gb/s. N arrives on a: it takes what is left
// of a, less than X1 holds (J1 pulls X1 in, bringing b); X1 falls to split a,
// which frees b under X2 (J2, bringing c); X2 settles at what X3 leaves of c,
// below X3's rate there (J1, bringing d). Every commit is checked bit for bit
// against the rescan oracle and against Waterfill at solver shards 1 and 4,
// and the four-round commit's workspace is checked member by member.
func TestJoinChainGathersAcrossRounds(t *testing.T) {
	chain := []float64{0.8e9, 1e9, 1.5e9, 1e9}
	var caps []float64
	for _, scale := range []float64{1, 2.5} {
		for _, c := range chain {
			caps = append(caps, c*scale)
		}
	}
	ls := newLockstep(t, caps, 1, 4)
	check := func() {
		for _, is := range ls.subj {
			checkAgainstWaterfill(t, is, caps, ls.live)
		}
	}
	for _, a := range []int32{0, 4} {
		ls.add([]int32{a, a + 1}, 0)
		ls.add([]int32{a + 1, a + 2}, 0)
		ls.add([]int32{a + 2, a + 3}, 0)
	}
	ls.commitShaped("residents", roundShapes{multiComp: 1, allFreeze: 2, partial: 2})
	check()
	ls.add([]int32{0}, 0)
	ls.add([]int32{4}, 0)
	before := ls.oracle.shapes
	ls.commit()
	if got := ls.oracle.shapes.minus(before); got.multiComp != 4 || got.lone+got.oneComp != 0 {
		t.Fatalf("arrival commit had shapes %+v, want four rounds of two components", got)
	}
	check()
	for _, is := range ls.subj {
		checkWorkspace(t, is, 2)
	}
}

// checkWorkspace requires is's last commit workspace to hold A in order,
// every member's path the dense indices of its links numbered in first-seen
// order over A, each dense link's id and loc agreeing, and every member from
// A position staged on (the joiners) to bring a link new to the workspace
// and to cross one an earlier member brought.
func checkWorkspace(t *testing.T, is *IncSolver, staged int) {
	t.Helper()
	ws := &is.ws
	if len(ws.mem) != len(is.inA) {
		t.Fatalf("shards=%d: workspace holds %d members, A has %d", is.shards, len(ws.mem), len(is.inA))
	}
	seen := int32(0)
	for i := range ws.mem {
		s := is.inA[i]
		m := &ws.mem[i]
		path := ws.path[m.off : m.off+m.n]
		if len(path) != int(is.sN[s]) {
			t.Fatalf("shards=%d member %d: %d dense links, session has %d", is.shards, i, len(path), is.sN[s])
		}
		before, crossed := seen, false
		for j, d := range path {
			switch {
			case d > seen:
				t.Fatalf("shards=%d member %d: dense link %d before %d was numbered", is.shards, i, d, seen)
			case d == seen:
				seen++
			case d < before:
				crossed = true
			}
			l := is.sLink[s*sessBlock+int32(j)]
			if ws.link[d].id != l || is.links[l].loc != d {
				t.Fatalf("shards=%d member %d: dense link %d is link %d (loc %d), path says link %d",
					is.shards, i, d, ws.link[d].id, is.links[l].loc, l)
			}
		}
		if i >= staged && (!crossed || seen == before) {
			t.Fatalf("shards=%d joiner %d: path %v, links 0..%d numbered before it", is.shards, i, path, before-1)
		}
	}
	if int(seen) != len(ws.link) {
		t.Fatalf("shards=%d: %d dense links, paths number %d", is.shards, len(ws.link), seen)
	}
}

// TestLiveSetMatchesRescanBitExact is the contract of the shipped round —
// the fused set-up walk, the decide-then-apply live-set loop, the
// one-component route, and all of it for a lone session too: on the directed
// shapes above and on spray-shaped histories — large coupled components that
// freeze over many iterations — the shipped solver at solver shards 1/2/4
// reproduces the loop it replaced exactly, every rate of every commit, and
// the result is still the unique max-min allocation. The random histories must between them reach every
// shape too (but the backstop, which no input reaches).
func TestLiveSetMatchesRescanBitExact(t *testing.T) {
	shapesHistory(t, 1, 2, 4)
	departureHistory(t, 1, 2, 4)

	root := sim.NewRNG(20260929)
	var maxIters uint64
	var shapes roundShapes
	for trial := 0; trial < 12; trial++ {
		rng := root.Fork(string(rune('a' + trial)))
		f := newSprayFabric(rng, 3+rng.Intn(6), 6+rng.Intn(30))
		ls := newLockstep(t, f.caps, 1, 2, 4)
		ls.oracle.shapes = shapes // keep counting across the trials
		sprayHistory(rng, f, ls, 40, func() {
			checkAgainstWaterfill(t, ls.subj[0], f.caps, ls.live)
		})
		if ls.maxIters > maxIters {
			maxIters = ls.maxIters
		}
		shapes = ls.oracle.shapes
	}
	if maxIters < 8 {
		t.Fatalf("histories never left the shallow regime: at most %d bottleneck iterations in a commit", maxIters)
	}
	if shapes.lone == 0 || shapes.oneComp == 0 || shapes.multiComp == 0 || shapes.interleaved == 0 ||
		shapes.allFreeze == 0 || shapes.partial == 0 {
		t.Fatalf("histories missed a round shape: %+v", shapes)
	}
}

// ageStamps puts a solver between commits where four billion of them would
// have left it: the commit generation one step from wrapping, every stamp
// holding a small value from the cycle that is ending — exactly the values
// the new cycle's first commits are about to hand out again — and every link
// holding a small workspace index, live-looking to a reader that skipped the
// first touch's reset.
func ageStamps(is *IncSolver) {
	for i := range is.links {
		lk := &is.links[i]
		lk.tStamp, lk.loc = uint32(1+i%2), int32(i%3)
	}
	for s := range is.sess {
		old := uint32(1 + s%2)
		is.sess[s].stamp, is.sess[s].mStamp, is.lStamp[s] = old, old, old
	}
	is.gen = math.MaxUint32
}

// TestStampWraparound drives the solver's commit generation
// across MaxUint32 in the middle of a spray-shaped history, with every
// session and link still carrying a stamp the new cycle reuses at once: one
// read as current would skip a staging, a join, a remark or a link's set-up.
// The oracle is left alone (its round stamps are 64-bit and its commit
// generation stays in the hundreds), and every commit is checked against it
// bit for bit, standing queues included, and against Waterfill.
func TestStampWraparound(t *testing.T) {
	rng := sim.NewRNG(20261003)
	f := newSprayFabric(rng, 5, 12)
	ls := newLockstep(t, f.caps, 1, 2, 4)
	check := func() { checkAgainstWaterfill(t, ls.subj[0], f.caps, ls.live) }
	sprayHistory(rng, f, ls, 12, check)
	for _, is := range ls.subj {
		ageStamps(is)
	}
	sprayHistory(rng, f, ls, 30, check)
	for _, is := range ls.subj {
		if is.gen > 1000 {
			t.Fatalf("shards=%d: generation %d never wrapped", is.shards, is.gen)
		}
	}
}

// TestLiveSetBackstopMatchesRescan reaches the numerical backstop — an
// iteration in which nothing freezes. No input can get there (every level
// has a witness: the link or cap that set it), so the test corrupts the
// state the way only a bug could: NaN caps on two sessions whose only link
// holds a NaN load. A healthy third member freezes first, so the backstop
// fires on an already-compacted live set. Both loops must hand the stranded
// members the level (+Inf here) and stop.
// The commit's shapes are asserted: a partial freeze, then the backstop.
func TestLiveSetBackstopMatchesRescan(t *testing.T) {
	caps := []float64{1e9, 1e9, 1e9}
	ls := newLockstep(t, caps, 1, 2, 4)
	ls.add([]int32{0, 1}, 0)
	ls.add([]int32{1, 2}, 3e8)
	ls.commit()
	a := ls.add([]int32{0}, 0)
	b := ls.add([]int32{0}, 0)
	c := ls.add([]int32{0, 2}, 1e8)
	poison := func(is *IncSolver) {
		is.sess[ls.live[a].id].cap = math.NaN()
		is.sess[ls.live[b].id].cap = math.NaN()
		is.links[0].load = math.NaN()
	}
	poison(&ls.oracle.IncSolver)
	for _, is := range ls.subj {
		poison(is)
	}
	ls.commitShaped("poisoned component", roundShapes{oneComp: 1, partial: 1, backstop: 1})
	for _, is := range ls.subj {
		if ra, rb := is.Rate(ls.live[a].id), is.Rate(ls.live[b].id); !math.IsInf(ra, 1) || !math.IsInf(rb, 1) {
			t.Fatalf("shards=%d: stranded sessions got %v and %v, want the backstop's +Inf level", is.shards, ra, rb)
		}
		if rc := is.Rate(ls.live[c].id); rc != 1e8 {
			t.Fatalf("shards=%d: healthy member got %v, want its 1e8 cap", is.shards, rc)
		}
	}
}
