package core

import (
	"testing"

	"flowbender/internal/sim"
)

func TestSprayerChangesTagEveryBurst(t *testing.T) {
	s := NewSprayer(8, 1200, nil)
	first := s.Tag(400) // 400 bytes into burst
	if s.Tag(400) != first {
		t.Fatal("tag changed mid-burst")
	}
	// Third call starts at 800 < 1200, still same burst.
	if s.Tag(400) != first {
		t.Fatal("tag changed before burst boundary")
	}
	// Now exactly 1200 accounted, a full burst: next call rolls the tag.
	prev := s.Tag(400)
	if prev == first {
		t.Fatal("tag did not change after burst boundary")
	}
	// From here every burst is three 400-byte calls: the tag changes on the
	// first call of each and holds for the other two.
	for call := 5; call <= 40; call++ {
		tag := s.Tag(400)
		if boundary := call%3 == 1; (tag != prev) != boundary {
			t.Fatalf("call %d: tag %d after %d, boundary %v", call, tag, prev, boundary)
		}
		prev = tag
	}
}

func TestSprayerTagInRange(t *testing.T) {
	s := NewSprayer(4, 100, sim.NewRNG(3))
	for i := 0; i < 10_000; i++ {
		if tag := s.Tag(64); tag >= 4 {
			t.Fatalf("tag %d out of range", tag)
		}
	}
}

func TestSprayerRandomNeverRepeatsOnChange(t *testing.T) {
	s := NewSprayer(8, 10, sim.NewRNG(4))
	prev := s.Tag(10)
	for i := 0; i < 1000; i++ {
		cur := s.Tag(10) // every call crosses the burst boundary
		if cur == prev {
			t.Fatalf("burst change kept tag %d", cur)
		}
		prev = cur
	}
}

func TestSprayerDefaults(t *testing.T) {
	s := NewSprayer(0, 0, nil)
	if s.numValues != DefaultNumValues {
		t.Fatalf("numValues = %d", s.numValues)
	}
	if s.burst != 64*1024 {
		t.Fatalf("burst = %d", s.burst)
	}
}
