package core

import (
	"testing"

	"flowbender/internal/sim"
)

func TestSprayerChangesTagEveryBurst(t *testing.T) {
	s := NewSprayer(8, 1000, nil)
	first := s.Tag(400) // 400 bytes into burst
	if s.Tag(400) != first {
		t.Fatal("tag changed mid-burst")
	}
	// Third call starts at 800 < 1000, still same burst.
	if s.Tag(400) != first {
		t.Fatal("tag changed before burst boundary")
	}
	// Now 1200 >= 1000 accounted: next call rolls the tag.
	if s.Tag(400) == first {
		t.Fatal("tag did not change after burst boundary")
	}
	if s.Changes != 1 {
		t.Fatalf("Changes = %d, want 1", s.Changes)
	}
}

func TestSprayerTagInRange(t *testing.T) {
	s := NewSprayer(4, 100, sim.NewRNG(3))
	for i := 0; i < 10_000; i++ {
		if tag := s.Tag(64); tag >= 4 {
			t.Fatalf("tag %d out of range", tag)
		}
	}
	if s.total != 640_000 {
		t.Fatalf("total = %d", s.total)
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
