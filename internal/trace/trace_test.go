package trace

import (
	"strings"
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

func TestSamplerTicks(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, sim.Millisecond)
	x := 0.0
	series := s.Track("x", func() float64 { x++; return x })
	s.Start()
	eng.Run(10 * sim.Millisecond)
	if series.Len() != 10 {
		t.Fatalf("samples = %d, want 10", series.Len())
	}
	if series.T[0] != sim.Millisecond || series.V[0] != 1 {
		t.Fatalf("first sample (%v, %v)", series.T[0], series.V[0])
	}
	if series.T[9] != 10*sim.Millisecond || series.V[9] != 10 {
		t.Fatalf("last sample (%v, %v)", series.T[9], series.V[9])
	}
}

func TestSamplerStop(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, sim.Millisecond)
	series := s.Track("x", func() float64 { return 1 })
	s.Start()
	eng.Run(3 * sim.Millisecond)
	s.Stop()
	eng.Run(10 * sim.Millisecond)
	if series.Len() > 4 {
		t.Fatalf("sampler kept running after Stop: %d samples", series.Len())
	}
}

func TestSamplerDoubleStartHarmless(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, sim.Millisecond)
	series := s.Track("x", func() float64 { return 1 })
	s.Start()
	s.Start()
	eng.Run(5 * sim.Millisecond)
	if series.Len() != 5 {
		t.Fatalf("double Start duplicated sampling: %d", series.Len())
	}
}

func TestWriteCSV(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, sim.Millisecond)
	a := s.Track("a", func() float64 { return 1.5 })
	b := s.Track("b", func() float64 { return 2 })
	s.Start()
	eng.Run(2 * sim.Millisecond)

	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d: %q", len(lines), out)
	}
	if lines[0] != "time_us,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1000.0,1.5,2") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWriteCSVMismatch(t *testing.T) {
	a := &Series{Name: "a"}
	b := &Series{Name: "b"}
	a.Add(1, 1)
	if err := WriteCSV(&strings.Builder{}, a, b); err == nil {
		t.Fatal("mismatched series accepted")
	}
	if err := WriteCSV(&strings.Builder{}); err == nil {
		t.Fatal("empty series list accepted")
	}
}

func TestQueueBytesProbe(t *testing.T) {
	eng := sim.NewEngine()
	p := netsim.NewPort(eng, 1_000_000) // slow: packets stay queued
	p.Link = netsim.Link{To: devNull{}}
	probe := QueueBytes(p)
	p.Enqueue(&netsim.Packet{Size: 500})
	p.Enqueue(&netsim.Packet{Size: 300})
	// First packet is serializing (left the queue); the second waits.
	if got := probe(); got != 300 {
		t.Fatalf("queue probe = %v, want 300", got)
	}
}

type devNull struct{}

func (devNull) ID() netsim.NodeID           { return 0 }
func (devNull) Receive(*netsim.Packet, int) {}
