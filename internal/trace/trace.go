// Package trace provides lightweight time-series instrumentation for
// simulation runs: a Sampler periodically evaluates registered probes
// (congestion windows, queue depths, link throughput, FlowBender path tags,
// ...) and the recorded series can be exported as CSV for plotting — the
// raw material for reproducing the paper's figures as actual graphs.
package trace

import (
	"fmt"
	"io"
	"strconv"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// Series is one named, time-stamped sequence of samples.
type Series struct {
	Name string
	T    []sim.Time
	V    []float64
}

// Add appends a sample.
func (s *Series) Add(t sim.Time, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.V) }

// Sampler drives a set of probes at a fixed virtual-time interval.
type Sampler struct {
	eng      *sim.Engine
	interval sim.Time
	probes   []func() float64
	series   []*Series
	stopped  bool
	started  bool
	tickFn   func() // prebuilt so periodic sampling does not allocate
}

// NewSampler creates a sampler ticking every interval.
func NewSampler(eng *sim.Engine, interval sim.Time) *Sampler {
	if interval <= 0 {
		interval = 100 * sim.Microsecond
	}
	s := &Sampler{eng: eng, interval: interval}
	s.tickFn = s.tick
	return s
}

// Track registers a probe and returns its series. Must be called before
// Start.
func (s *Sampler) Track(name string, probe func() float64) *Series {
	se := &Series{Name: name}
	s.probes = append(s.probes, probe)
	s.series = append(s.series, se)
	return se
}

// Start schedules the periodic sampling (the first tick is one interval in).
func (s *Sampler) Start() {
	if s.started {
		return
	}
	s.started = true
	s.stopped = false
	s.eng.Schedule(s.interval, s.tickFn)
}

// Stop halts sampling after the current tick.
func (s *Sampler) Stop() { s.stopped = true }

func (s *Sampler) tick() {
	if s.stopped {
		s.started = false
		return
	}
	now := s.eng.Now()
	for i, probe := range s.probes {
		s.series[i].Add(now, probe())
	}
	s.eng.Schedule(s.interval, s.tickFn)
}

// WriteCSV emits the series as CSV: a time_us column followed by one column
// per series. The series must have identical timestamps (i.e. come from one
// sampler).
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return fmt.Errorf("trace: no series")
	}
	n := series[0].Len()
	for _, s := range series[1:] {
		if s.Len() != n {
			return fmt.Errorf("trace: series %q has %d samples, want %d", s.Name, s.Len(), n)
		}
	}
	if _, err := io.WriteString(w, "time_us"); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := io.WriteString(w, ","+s.Name); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row := strconv.FormatFloat(float64(series[0].T[i])/1000, 'f', 1, 64)
		for _, s := range series {
			row += "," + strconv.FormatFloat(s.V[i], 'g', 6, 64)
		}
		if _, err := io.WriteString(w, row+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// QueueBytes probes an egress port's queue occupancy.
func QueueBytes(p *netsim.Port) func() float64 {
	return func() float64 { return float64(p.QueuedBytes()) }
}
