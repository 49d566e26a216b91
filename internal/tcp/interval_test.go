package tcp

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntervalAddMerge(t *testing.T) {
	var s intervalSet
	s.add(10, 20)
	s.add(30, 40)
	if len(s.iv) != 2 {
		t.Fatalf("len = %d", len(s.iv))
	}
	s.add(20, 30) // bridges the gap
	if len(s.iv) != 1 || s.iv[0] != (ivl{10, 40}) {
		t.Fatalf("merge failed: %+v", s.iv)
	}
	s.add(5, 12) // overlaps the left edge
	if len(s.iv) != 1 || s.iv[0] != (ivl{5, 40}) {
		t.Fatalf("left merge failed: %+v", s.iv)
	}
	s.add(50, 50) // empty: ignored
	if len(s.iv) != 1 {
		t.Fatalf("empty interval inserted: %+v", s.iv)
	}
}

func TestIntervalConsume(t *testing.T) {
	var s intervalSet
	s.add(10, 20)
	s.add(20, 35)
	s.add(40, 50)
	if next := s.consume(10); next != 35 {
		t.Fatalf("consume(10) = %d, want 35", next)
	}
	if len(s.iv) != 1 {
		t.Fatalf("remaining = %+v", s.iv)
	}
	if next := s.consume(5); next != 5 {
		t.Fatalf("consume(5) = %d, want 5 (gap before 40)", next)
	}
}

func TestIntervalCoveredAndNextUncovered(t *testing.T) {
	var s intervalSet
	s.add(10, 20)
	s.add(30, 40)
	if !s.covered(12, 18) || !s.covered(10, 20) {
		t.Fatal("covered() false negative")
	}
	if s.covered(15, 25) || s.covered(5, 12) || s.covered(20, 30) {
		t.Fatal("covered() false positive")
	}
	if got := s.nextUncovered(10); got != 20 {
		t.Fatalf("nextUncovered(10) = %d", got)
	}
	if got := s.nextUncovered(25); got != 25 {
		t.Fatalf("nextUncovered(25) = %d", got)
	}
	if got := s.nextUncovered(35); got != 40 {
		t.Fatalf("nextUncovered(35) = %d", got)
	}
}

func TestIntervalBytesAbove(t *testing.T) {
	var s intervalSet
	s.add(10, 20)
	s.add(30, 40)
	if got := s.bytesAbove(0); got != 20 {
		t.Fatalf("bytesAbove(0) = %d", got)
	}
	if got := s.bytesAbove(15); got != 15 {
		t.Fatalf("bytesAbove(15) = %d", got)
	}
	if got := s.bytesAbove(40); got != 0 {
		t.Fatalf("bytesAbove(40) = %d", got)
	}
}

func TestIntervalBlocksCapped(t *testing.T) {
	var s intervalSet
	for i := int64(0); i < 10; i++ {
		s.add(i*100, i*100+50)
	}
	blocks := s.appendBlocks(nil, 4)
	if len(blocks) != 4 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	if blocks[0].Start != 0 || blocks[0].End != 50 {
		t.Fatalf("first block %+v", blocks[0])
	}
	if s.appendBlocks(nil, 20) == nil || len(s.appendBlocks(nil, 20)) != 10 {
		t.Fatal("uncapped blocks wrong")
	}
	var empty intervalSet
	if empty.appendBlocks(nil, 4) != nil {
		t.Fatal("empty set should return nil blocks")
	}
}

// Property: intervalSet matches a reference bitmap implementation under
// random adds/consumes.
func TestIntervalSetMatchesReference(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s intervalSet
		ref := map[int64]bool{} // byte -> received
		const span = 400
		for range ops {
			a := int64(rng.Intn(span))
			b := a + int64(rng.Intn(40)) + 1
			s.add(a, b)
			for i := a; i < b; i++ {
				ref[i] = true
			}
			// Compare total bytes.
			var refBytes int64
			for i := int64(0); i < span+50; i++ {
				if ref[i] {
					refBytes++
				}
			}
			if got := s.bytesAbove(0); got != refBytes {
				return false
			}
			// Compare covered/nextUncovered at random probes.
			p := int64(rng.Intn(span))
			wantNext := p
			for ref[wantNext] {
				wantNext++
			}
			if s.nextUncovered(p) != wantNext {
				return false
			}
		}
		// Intervals must be sorted and disjoint.
		if !sort.SliceIsSorted(s.iv, func(i, j int) bool { return s.iv[i].s < s.iv[j].s }) {
			return false
		}
		for i := 1; i < len(s.iv); i++ {
			if s.iv[i-1].e >= s.iv[i].s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
