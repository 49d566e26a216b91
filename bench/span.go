package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call from the benchmark into a layer. Spans of one
// simulation point share Point; Parent is the index (in ID space) of the
// span that was open when this one began, -1 for a point's root.
type span struct {
	Name    string `json:"name"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Point   int32  `json:"point"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanStat aggregates every span of one name, kept or not.
type spanStat struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
	MaxNs   int64 `json:"max_ns"`
}

// Names called more often than keepAllBelow keep only every keepEvery-th
// span record; their aggregate stays exact.
const (
	keepAllBelow = 10_000
	keepEvery    = 64
)

type openSpan struct {
	name    string
	id      int32
	start   int64
	childNs int64
}

// tracer records spans in memory from a single goroutine. A nil *tracer is
// the tracing-off state: begin and end are no-ops, so the mirror runs the
// same code traced and untraced and their wall-time difference is the
// tracing overhead.
type tracer struct {
	t0    time.Time
	point int32
	next  int32
	open  []openSpan
	kept  []span
	stats map[string]*spanStat
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stats: make(map[string]*spanStat)}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.open = append(t.open, openSpan{name: name, id: t.next, start: int64(time.Since(t.t0))})
	t.next++
}

// end closes the innermost open span. Self time is the span's duration
// minus the durations of the spans it directly contains.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	dur := now - o.start
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		t.open[n-1].childNs += dur
		parent = t.open[n-1].id
	}
	st := t.stats[o.name]
	if st == nil {
		st = &spanStat{}
		t.stats[o.name] = st
	}
	st.Count++
	st.TotalNs += dur
	st.SelfNs += dur - o.childNs
	if dur > st.MaxNs {
		st.MaxNs = dur
	}
	if st.Count <= keepAllBelow || st.Count%keepEvery == 0 {
		t.kept = append(t.kept, span{Name: o.name, ID: o.id, Parent: parent, Point: t.point,
			StartNs: o.start, EndNs: now})
	}
}

// newPoint starts a new span identifier group: every span begun until the
// next call belongs to the same simulation point.
func (t *tracer) newPoint() {
	if t != nil {
		t.point++
	}
}

// stat returns the aggregate of one span name (zero when never called).
func (t *tracer) stat(name string) spanStat {
	if t == nil || t.stats[name] == nil {
		return spanStat{}
	}
	return *t.stats[name]
}

func (s spanStat) totalS() float64 { return float64(s.TotalNs) / 1e9 }
func (s spanStat) selfS() float64  { return float64(s.SelfNs) / 1e9 }

// perCall returns the mean total time of one call in the given unit
// (1e3 = µs, 1 = ns), or 0 when the span never ran.
func (s spanStat) perCall(unitNs float64) float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalNs) / float64(s.Count) / unitNs
}

// write stores the aggregates and the kept spans as one JSON file.
func (t *tracer) write(path, workload string, seed int64) error {
	names := make([]string, 0, len(t.stats))
	for n := range t.stats {
		names = append(names, n)
	}
	sort.Strings(names)
	type namedStat struct {
		Name string `json:"name"`
		spanStat
	}
	out := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Stats    []namedStat `json:"stats"`
		Spans    []span      `json:"spans"`
	}{Workload: workload, Seed: seed, Spans: t.kept}
	for _, n := range names {
		out.Stats = append(out.Stats, namedStat{n, *t.stats[n]})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
