package fluid

import (
	"math"
	"math/bits"
	"testing"
	"unsafe"

	"flowbender/internal/sim"
)

// effectiveLinks mirrors the solver's path sanitization (linkAll): links
// outside [0, nLinks) are skipped and at most sessBlock in-range links are
// kept, in order. The oracle must see exactly the links the solver kept.
func effectiveLinks(nLinks int, links []int32) []int32 {
	var out []int32
	for _, l := range links {
		if l < 0 || int(l) >= nLinks {
			continue
		}
		if len(out) == sessBlock {
			break
		}
		out = append(out, l)
	}
	return out
}

// modelSess is the reference bookkeeping for one live incremental session.
type modelSess struct {
	id    int32
	links []int32 // raw, as handed to Add/SetLinks
	cap   float64
}

// checkAgainstWaterfill rebuilds the live session set from scratch through
// the Waterfill oracle and requires the incremental rates to match within
// float tolerance. The max-min allocation is unique, so agreement here is
// the full correctness certificate for whatever mutation history produced
// the solver's current state. It also cross-checks the solver's link loads
// against the rate sums (accumulated drift would break the join rules long
// before it breaks a single solve).
func checkAgainstWaterfill(t *testing.T, is *IncSolver, caps []float64, live []modelSess) {
	t.Helper()
	sessions := make([]Session, len(live))
	for i, m := range live {
		sessions[i] = Session{Links: effectiveLinks(len(caps), m.links), Cap: m.cap}
	}
	want := Waterfill(caps, sessions)
	for i, m := range live {
		got := is.Rate(m.id)
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Fatalf("session %d (slot %d): invalid incremental rate %v", i, m.id, got)
		}
		tol := 1e-6 * math.Max(1, math.Max(got, want[i]))
		if math.Abs(got-want[i]) > tol {
			t.Fatalf("session %d (slot %d): incremental rate %v, waterfill %v (links %v cap %v)",
				i, m.id, got, want[i], sessions[i].Links, m.cap)
		}
	}
	// Load consistency: the solver's per-link loads must equal the rate
	// sums (duplicate traversals counted per entry, exactly as the oracle
	// counts them).
	sum := make([]float64, len(caps))
	for i, m := range live {
		for _, l := range effectiveLinks(len(caps), m.links) {
			sum[l] += is.Rate(m.id)
		}
		_ = i
	}
	for l := range caps {
		tol := 1e-6 * math.Max(1, math.Max(sum[l], is.links[l].load))
		if math.Abs(sum[l]-is.links[l].load) > tol {
			t.Fatalf("link %d: load %v, rate sum %v", l, is.links[l].load, sum[l])
		}
	}
}

// randomCaps draws link capacities with deliberate ties (a small value
// palette) so the eps-grouped freezing logic gets exercised, plus the
// occasional dead link.
func randomCaps(rng *sim.RNG, n int) []float64 {
	palette := []float64{1e6, 1e6, 5e6, 1e7, 4e7, 1e9}
	caps := make([]float64, n)
	for i := range caps {
		if rng.Intn(20) == 0 {
			caps[i] = 0
			continue
		}
		caps[i] = palette[rng.Intn(len(palette))]
	}
	return caps
}

// randomPath draws a path of 0..8 links from [-2, nLinks+2), with
// replacement: out-of-range entries exercise the sanitizer, repeats make a
// session count twice on one link, and lengths beyond sessBlock exercise
// the truncation the oracle mirror must reproduce.
func randomPath(rng *sim.RNG, nLinks int) []int32 {
	np := rng.Intn(9)
	links := make([]int32, np)
	for j := range links {
		links[j] = int32(rng.Intn(nLinks+4)) - 2
	}
	return links
}

// randomCap draws a session rate cap: often uncapped, otherwise spanning
// well below to well above the link palette.
func randomCap(rng *sim.RNG) float64 {
	if rng.Intn(3) == 0 {
		return 0 // uncapped
	}
	return math.Pow(10, 3+7*rng.Float64())
}

// TestIncrementalMatchesWaterfill is the solver's central property test:
// random mutation histories — adds, removes, cap changes, reroutes, in
// batches of several per commit — must leave the incremental state equal to
// a from-scratch waterfill of the surviving sessions, every time. The
// dirty-set propagation (join rules J1/J2) is only correct if no
// undisturbed session ever needed a new rate; comparing against the unique
// max-min solution after every commit is exactly that claim.
func TestIncrementalMatchesWaterfill(t *testing.T) {
	root := sim.NewRNG(20260808)
	var is IncSolver
	for trial := 0; trial < 40; trial++ {
		rng := root.Fork(string(rune('A' + trial)))
		nLinks := 3 + rng.Intn(30)
		caps := randomCaps(rng, nLinks)
		is.Reset(caps, nil)
		var live []modelSess
		for step := 0; step < 12; step++ {
			batch := 1 + rng.Intn(4)
			for b := 0; b < batch; b++ {
				switch op := rng.Intn(10); {
				case op < 4 || len(live) == 0: // add
					links := randomPath(rng, nLinks)
					cap := randomCap(rng)
					id := is.Add(links, cap)
					live = append(live, modelSess{id: id, links: links, cap: cap})
				case op < 6: // remove
					k := rng.Intn(len(live))
					is.Remove(live[k].id)
					live = append(live[:k], live[k+1:]...)
				case op < 8: // set cap
					k := rng.Intn(len(live))
					live[k].cap = randomCap(rng)
					is.SetCap(live[k].id, live[k].cap)
				default: // reroute
					k := rng.Intn(len(live))
					live[k].links = randomPath(rng, nLinks)
					is.SetLinks(live[k].id, live[k].links)
				}
			}
			is.Commit()
			checkAgainstWaterfill(t, &is, caps, live)
		}
	}
}

// TestIncrementalDuplicateLinks pins the duplicate-traversal semantics
// explicitly: a session crossing the same link twice consumes double rate
// on it, alone or beside others. The shared link makes the dup session's
// allocation visible to a bystander.
func TestIncrementalDuplicateLinks(t *testing.T) {
	caps := []float64{10e9, 10e9, 10e9}
	var is IncSolver
	is.Reset(caps, nil)
	live := []modelSess{
		{links: []int32{0, 1, 0}}, // crosses link 0 twice
		{links: []int32{0, 2}},
	}
	for i := range live {
		live[i].id = is.Add(live[i].links, live[i].cap)
	}
	is.Commit()
	checkAgainstWaterfill(t, &is, caps, live)

	// The dup session alone on the fabric: a lone round must still count it
	// twice on the dup link and produce cap/2.
	is.Remove(live[1].id)
	is.Commit()
	live = live[:1]
	checkAgainstWaterfill(t, &is, caps, live)
	if r := is.Rate(live[0].id); math.Abs(r-5e9) > 1 {
		t.Fatalf("dup-link session rate %v, want 5e9 (half the twice-crossed link)", r)
	}
}

// shardScenario replays one deterministic mutation history — sessions
// clustered into link-disjoint groups so every round has many independent
// components — and returns the full rate vector after each commit.
func shardScenario(t *testing.T, shards int) [][]float64 {
	t.Helper()
	const (
		groups    = 12
		linksPer  = 5
		nLinks    = groups * linksPer
		nSessions = 150
	)
	rng := sim.NewRNG(4242)
	caps := make([]float64, nLinks)
	for i := range caps {
		caps[i] = 1e9 * float64(1+rng.Intn(8))
	}
	var is IncSolver
	is.SetShards(shards)
	is.parThresh = 1 // force the parallel dispatch even for small rounds
	is.Reset(caps, nil)

	path := func() []int32 {
		g := int32(rng.Intn(groups)) * linksPer
		n := 1 + rng.Intn(4)
		links := make([]int32, n)
		for j := range links {
			links[j] = g + int32(rng.Intn(linksPer))
		}
		return links
	}
	var ids []int32
	var out [][]float64
	snap := func() {
		rates := make([]float64, len(ids))
		for i, id := range ids {
			rates[i] = is.Rate(id)
		}
		out = append(out, rates)
	}
	for i := 0; i < nSessions; i++ {
		ids = append(ids, is.Add(path(), 0))
	}
	is.Commit()
	snap()
	for round := 0; round < 6; round++ {
		for i := 0; i < 40; i++ {
			is.SetLinks(ids[rng.Intn(len(ids))], path())
		}
		is.Commit()
		snap()
	}
	return out
}

// TestSolverShardsBitIdentical is the parallel-solver determinism
// contract: with the dispatch threshold forced to 1, the same mutation
// history solved serially and at 2, 4, and 8 workers must produce
// bit-identical rates after every commit — not merely close. Components
// are link-disjoint, each is solved by exactly one worker with the same
// serial arithmetic, and the apply pass runs in deterministic A-order on
// the caller; this test (run under -race in CI) is the proof.
func TestSolverShardsBitIdentical(t *testing.T) {
	serial := shardScenario(t, 1)
	for _, shards := range []int{2, 4, 8} {
		got := shardScenario(t, shards)
		if len(got) != len(serial) {
			t.Fatalf("shards=%d: %d snapshots, serial took %d", shards, len(got), len(serial))
		}
		for c := range serial {
			for i := range serial[c] {
				if math.Float64bits(got[c][i]) != math.Float64bits(serial[c][i]) {
					t.Fatalf("shards=%d commit %d session %d: rate %v != serial %v (bitwise)",
						shards, c, i, got[c][i], serial[c][i])
				}
			}
		}
	}
}

// TestIncrementalZeroAllocSteadyState is the allocation-regression gate's
// solver half: once the arenas are warm, a full churn cycle — add, cap
// change, reroute, remove, with a commit after each — performs zero heap
// allocations, and so does a session joining and leaving a warm 200-member
// component. CI fails on any nonzero count; "almost zero" is how arena
// disciplines rot.
func TestIncrementalZeroAllocSteadyState(t *testing.T) {
	caps := []float64{10e9, 10e9, 10e9, 10e9, 40e9, 40e9}
	var is IncSolver
	is.Reset(caps, nil)
	pathA := []int32{0, 4, 2}
	pathB := []int32{1, 5, 3}
	a := is.Add(pathA, 0)
	is.Commit()
	cycle := func() {
		b := is.Add(pathB, 0)
		is.Commit()
		is.SetCap(b, 3e9)
		is.Commit()
		is.SetLinks(b, pathA)
		is.Commit()
		is.Remove(b)
		is.Commit()
	}
	cycle() // warm the free list and staging arenas
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state churn cycle allocates %v times per run, want 0", n)
	}
	is.Remove(a)
	is.Commit()

	// The coupled regime: a session joining a warm component of 200 members
	// drags every one of them through the general solve loop (J1 on the way
	// in, J2 on the way out) — live-set compaction, share scratch and all —
	// and that must be as allocation-free as the lone-session cycle above.
	const members = 200
	wide := make([]float64, 1+8)
	wide[0] = 100e9
	for i := 1; i < len(wide); i++ {
		wide[i] = float64(i) * 4e9 // unequal side links: the component freezes over several iterations
	}
	is.Reset(wide, nil)
	for i := 0; i < members; i++ {
		is.Add([]int32{0, int32(1 + i%8)}, 0)
	}
	is.Commit()
	joiner := []int32{0}
	resolved := 0
	coupled := func() {
		j := is.Add(joiner, 0)
		is.Commit()
		resolved = len(is.Affected())
		is.Remove(j)
		is.Commit()
	}
	coupled()
	if resolved <= members {
		t.Fatalf("joining session re-solved %d sessions, want the whole %d-member component and itself", resolved, members)
	}
	if n := testing.AllocsPerRun(100, coupled); n != 0 {
		t.Fatalf("coupled add/commit/remove/commit cycle allocates %v times per run, want 0", n)
	}
}

// TestLinkRecIs32Bytes pins the link record to half a cache line: a
// 10,240-host fabric's records are the solver's largest array, and a commit's
// round scratch lives in its workspace, not in the records.
func TestLinkRecIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(linkRec{}); n != 32 {
		t.Fatalf("linkRec is %d bytes, want 32 (derive a field, or keep it in the commit workspace, before adding one)", n)
	}
}

// TestSessionArenaGrowsInLogSteps adds 10,000 sessions to a fresh solver, a
// commit after each: the eight session-slot arrays must grow together by
// doubling, at most 8 allocations per doubling, not append's ~1.25x steps.
// The sessions are linkless, so a round's own scratch is allocated once.
func TestSessionArenaGrowsInLogSteps(t *testing.T) {
	const n = 10000
	caps := []float64{1e9}
	steps := bits.Len(uint(n-1)) + 1 // capacities 1, 2, 4, ..., 2^14
	var is IncSolver
	allocs := testing.AllocsPerRun(4, func() {
		is = IncSolver{}
		is.Reset(caps, nil)
		for i := 0; i < n; i++ {
			is.Add(nil, 0)
			is.Commit()
		}
	})
	// Beside the arena: Reset's link records, the affected list, the
	// workspace's members and one round's scratch (members, union-find), and
	// spares for the runtime's own.
	const setup = 8
	if limit := float64(8*steps + setup); allocs > limit {
		t.Fatalf("adding %d sessions made %v allocations, want at most %v (8 per doubling)", n, allocs, limit)
	}
}

// FuzzIncrementalSolver decodes a byte string into a fabric plus a mutation
// script and replays it against the from-scratch oracle at every commit.
// Hostile values pass through on purpose — NaN and infinite capacities,
// out-of-range and duplicated links, over-length paths, zero-link sessions
// — because the solver's contract is to sanitize rather than crash, and
// the sanitized state must still be the unique max-min allocation.
//
// Encoding: [nLinks u8] then nLinks f32 capacity scales, then op codes:
// u8 % 6 selects add/add/remove/setcap/setlinks/commit, each consuming its
// operands from the stream (truncated input pads with zeros). The seed
// corpus in testdata/fuzz covers every op, hostile capacities, sessions
// that cross one link twice, and (the seed_spray_* entries) sprayed
// transfers whose components freeze over several iterations. Alongside the
// waterfill tolerance check, every commit must reproduce the full-rescan
// loop of incsolver_oracle_test.go bit for bit.
func FuzzIncrementalSolver(f *testing.F) {
	f.Add([]byte{3, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40,
		0, 2, 0, 0, 0, 0, 1, 2, 5})
	f.Add([]byte{1, 0, 0, 0x80, 0x7f, 0, 3, 0, 0, 0xc0, 0x7f, 0, 0, 0, 5, 2, 0})
	f.Add([]byte{12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
		0, 8, 0, 0, 0, 0, 1, 1, 9, 9, 200, 3, 3, 5, 4, 0, 2, 7, 7, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := fuzzReader{data: data}
		nLinks := int(rd.u8()%12) + 1
		caps := make([]float64, nLinks)
		for i := range caps {
			caps[i] = float64(rd.f32()) * 1e6
		}
		// One shipped solver, serial, in lockstep with the full-rescan oracle:
		// ls.commit requires the two to agree bit for bit.
		ls := newLockstep(t, caps, 1)
		is := ls.subj[0]
		verify := func() {
			sessions := make([]Session, len(ls.live))
			for i, m := range ls.live {
				sessions[i] = Session{Links: effectiveLinks(nLinks, m.links), Cap: m.cap}
			}
			want := Waterfill(caps, sessions)
			for i, m := range ls.live {
				got := is.Rate(m.id)
				if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
					t.Fatalf("session %d: invalid rate %v", i, got)
				}
				tol := 1e-6 * math.Max(1, math.Max(got, want[i]))
				if math.Abs(got-want[i]) > tol {
					t.Fatalf("session %d: incremental %v, waterfill %v", i, got, want[i])
				}
			}
		}
		path := func() []int32 {
			links := make([]int32, rd.u8()%9)
			for j := range links {
				links[j] = int32(rd.u8()) - 4
			}
			return links
		}
		steps := int(rd.u8()%28) + 2
		for i := 0; i < steps; i++ {
			switch rd.u8() % 6 {
			case 0, 1: // add
				np := rd.u8() % 9
				cap := float64(rd.f32())
				links := make([]int32, np)
				for j := range links {
					links[j] = int32(rd.u8()) - 4
				}
				ls.add(links, cap)
			case 2: // remove
				if len(ls.live) > 0 {
					ls.remove(int(rd.u8()) % len(ls.live))
				}
			case 3: // set cap
				if len(ls.live) > 0 {
					k := int(rd.u8()) % len(ls.live)
					ls.setCap(k, float64(rd.f32()))
				}
			case 4: // reroute
				if len(ls.live) > 0 {
					k := int(rd.u8()) % len(ls.live)
					ls.setLinks(k, path())
				}
			case 5: // commit + oracle check
				ls.commit()
				verify()
			}
		}
		ls.commit()
		verify()
	})
}
