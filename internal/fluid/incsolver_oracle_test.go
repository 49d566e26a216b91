package fluid

import (
	"math"
	"testing"

	"flowbender/internal/sim"
)

// oracleSolver is an IncSolver whose components are solved by the
// full-rescan progressive-filling loop the live-set loop replaced. It exists
// to pin the replacement bit for bit: same mutation history in, the same
// float64 out for every session after every commit.
type oracleSolver struct {
	IncSolver
	aFrozen []bool
}

// Commit is IncSolver.Commit with every round routed through the component
// machinery (no lone-session round shortcut) and solveCompRescan.
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
		is.bumpRound()
		if len(is.inA) > 0 {
			ncomp := is.splitComps()
			o.aFrozen = grown(o.aFrozen, len(is.inA))
			for c := 0; c < ncomp; c++ {
				o.solveCompRescan(c)
			}
			is.applyRates(is.roundGen)
		}
		if !is.joinScan() {
			break
		}
	}
	is.markPass()
	is.pending = false
}

// solveCompRescan is the solveComp this package shipped before the live-set
// loop, verbatim but for where aFrozen lives: every bottleneck iteration
// rescans the component's whole link list (dividing twice per link) and its
// whole session list, skipping what is already frozen.
func (o *oracleSolver) solveCompRescan(c int) {
	is := &o.IncSolver
	rg := is.roundGen
	sess := is.compSess[is.compOffs[c]:is.compOffs[c+1]]
	links := is.compLink[is.compLOff[c]:is.compLOff[c]:is.compLOff[c+1]]

	unfrozen := 0
	for _, ai := range sess {
		s := is.inA[ai]
		if is.sN[s] == 0 {
			o.aFrozen[ai] = true
			if is.sCap[s] >= hugeCap {
				is.aRate[ai] = 0
			} else {
				is.aRate[ai] = is.sCap[s]
			}
			continue
		}
		o.aFrozen[ai] = false
		is.aRate[ai] = 0
		unfrozen++
		base := int32(is.inA[ai]) * sessBlock
		for j := int8(0); j < is.sN[s]; j++ {
			l := is.sLink[base+int32(j)]
			if is.wSeen[l] != rg {
				is.wSeen[l] = rg
				is.wRem[l] = is.caps[l] - is.load[l]
				is.wAct[l] = 0
				links = append(links, l)
			}
			is.wRem[l] += is.sRate[s]
			is.wAct[l]++
		}
	}

	if unfrozen == 1 && len(sess) == 1 && len(links) == int(is.sN[is.inA[sess[0]]]) {
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
		o.aFrozen[ai] = true
		return
	}

	for unfrozen > 0 {
		tag := is.iterCtr.Add(1)
		level := math.Inf(1)
		for _, l := range links {
			if is.wAct[l] > 0 {
				if v := is.wRem[l] / float64(is.wAct[l]); v < level {
					level = v
				}
			}
		}
		for _, ai := range sess {
			if !o.aFrozen[ai] && is.sCap[is.inA[ai]] < level {
				level = is.sCap[is.inA[ai]]
			}
		}
		if level < 0 {
			level = 0
		}
		eps := level*1e-9 + 1e-15
		for _, l := range links {
			if is.wAct[l] > 0 && is.wRem[l]/float64(is.wAct[l]) <= level+eps {
				is.wBneck[l] = tag
			}
		}
		froze := false
		for _, ai := range sess {
			if o.aFrozen[ai] {
				continue
			}
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
				continue
			}
			o.aFrozen[ai] = true
			is.aRate[ai] = freezeAt
			unfrozen--
			froze = true
			for j := int8(0); j < is.sN[s]; j++ {
				l := is.sLink[base+int32(j)]
				is.wRem[l] -= freezeAt
				if is.wRem[l] < 0 {
					is.wRem[l] = 0
				}
				is.wAct[l]--
			}
		}
		if !froze {
			for _, ai := range sess {
				if !o.aFrozen[ai] {
					o.aFrozen[ai] = true
					is.aRate[ai] = level
				}
			}
			return
		}
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
	for _, shards := range shards {
		is := &IncSolver{}
		is.SetShards(shards)
		is.parThresh = 1
		is.Reset(caps, nil)
		ls.subj = append(ls.subj, is)
	}
	ls.oracle.Reset(caps, nil)
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
// the oracle's float64, bit for bit, at every shard count.
func (ls *lockstep) commit() {
	ls.t.Helper()
	before := ls.oracle.iterCtr.Load()
	ls.oracle.Commit()
	if n := ls.oracle.iterCtr.Load() - before; n > ls.maxIters {
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

// TestLiveSetMatchesRescanBitExact is the live-set loop's contract: on
// spray-shaped histories — large coupled components that freeze over many
// iterations — the shipped solver at solver shards 1/2/4 reproduces the
// full-rescan loop it replaced exactly, every rate of every commit, and the
// result is still the unique max-min allocation.
func TestLiveSetMatchesRescanBitExact(t *testing.T) {
	root := sim.NewRNG(20260929)
	var maxIters uint64
	for trial := 0; trial < 12; trial++ {
		rng := root.Fork(string(rune('a' + trial)))
		f := newSprayFabric(rng, 3+rng.Intn(6), 6+rng.Intn(30))
		ls := newLockstep(t, f.caps, 1, 2, 4)
		sprayHistory(rng, f, ls, 40, func() {
			checkAgainstWaterfill(t, ls.subj[0], f.caps, ls.live)
		})
		if ls.maxIters > maxIters {
			maxIters = ls.maxIters
		}
	}
	if maxIters < 8 {
		t.Fatalf("histories never left the shallow regime: at most %d bottleneck iterations in a commit", maxIters)
	}
}

// TestLiveSetBackstopMatchesRescan reaches the numerical backstop — an
// iteration in which nothing freezes. No input can get there (every level
// has a witness: the link or cap that set it), so the test corrupts the
// state the way only a bug could: NaN caps on two sessions whose only link
// holds a NaN load. A healthy third member freezes first, so the backstop
// fires on an already-compacted live set. Both loops must hand the stranded
// members the level (+Inf here) and stop.
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
		is.sCap[ls.live[a].id] = math.NaN()
		is.sCap[ls.live[b].id] = math.NaN()
		is.load[0] = math.NaN()
	}
	poison(&ls.oracle.IncSolver)
	for _, is := range ls.subj {
		poison(is)
	}
	ls.commit()
	for _, is := range ls.subj {
		if ra, rb := is.Rate(ls.live[a].id), is.Rate(ls.live[b].id); !math.IsInf(ra, 1) || !math.IsInf(rb, 1) {
			t.Fatalf("shards=%d: stranded sessions got %v and %v, want the backstop's +Inf level", is.shards, ra, rb)
		}
		if rc := is.Rate(ls.live[c].id); rc != 1e8 {
			t.Fatalf("shards=%d: healthy member got %v, want its 1e8 cap", is.shards, rc)
		}
	}
}
