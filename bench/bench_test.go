package main

import (
	"io"
	"regexp"
	"testing"
	"time"

	"flowbender/internal/experiments"
)

const declFile = "../BENCHMARK.json"

// testFrac is the size tests run the workloads at.
const testFrac = 0.05

func TestDeclarationMatchesProgram(t *testing.T) {
	d, err := loadDeclaration(declFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDeclaration(declFile, false, endToEnd); err != nil {
		t.Error(err)
	}
	if err := checkDeclaration(declFile, true, perLayer); err != nil {
		t.Error(err)
	}
	if len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(d.EndToEnd), len(d.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]declMetric{}, d.EndToEnd...), d.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the allowed alphabet", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is declared %q, the program has %q", i, w.Name, workloads[i].name)
		}
	}
}

// cheapRegistry trims the experiment registry to entries that finish in
// milliseconds at tiny scale, so suite-tiny's own code path (RunAll, the
// FAILED scan) runs inside the test budget; Table 1 alone is seconds.
func cheapRegistry(t *testing.T) {
	full := experiments.Registry
	t.Cleanup(func() { experiments.Registry = full })
	var cheap []experiments.RegistryEntry
	for _, e := range full {
		switch e.Name {
		case "sens-n", "topodep", "production", "fidelity":
			cheap = append(cheap, e)
		}
	}
	experiments.Registry = cheap
}

// Every workload, at a twentieth of its size, passes its output checks and
// emits exactly the declared end-to-end metrics; the passes of one run agree
// on the digest (runUntraced checks that itself and would report it).
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	cheapRegistry(t)
	for _, w := range workloads {
		c := runConfig{w: w, seed: 2, seconds: 0, frac: testFrac, declPath: declFile, log: io.Discard}
		res, digest := runUntraced(c)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(digest) != 64 {
			t.Errorf("%s: digest %q", w.name, digest)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics emitted, %d declared", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || m.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v), want unit %s and a positive value", w.name, d.name, m, ok, d.unit)
			}
		}
	}
}

// The mirror rebuilds each point from the layers' constructors; it measures
// the harness' work only if it executes the same events.
func TestMirrorExecutesHarnessEvents(t *testing.T) {
	for _, w := range workloads {
		spec := w.mirror.sized(testFrac)
		for _, s := range spec.schemes {
			if !spec.mix && s != experiments.ECMP {
				continue // the all-to-all single-point entry runs ECMP only
			}
			_, want := harnessPoint(spec, 3, s)
			plain := runMirror(nil, spec, 3, s)
			traced := runMirror(newTracer(), spec, 3, s)
			if int64(plain.events) != want || traced.events != plain.events {
				t.Errorf("%s %s: harness %d events, mirror %d untraced, %d traced", w.name, s, want, plain.events, traced.events)
			}
			if plain.incomplete != 0 || plain.flows != int64(spec.flows) {
				t.Errorf("%s %s: %d of %d flows completed", w.name, s, plain.flows, spec.flows)
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.newPoint()
	tr.begin("root")
	for i := 0; i < 3; i++ {
		tr.begin("child")
		tr.begin("leaf")
		time.Sleep(time.Millisecond)
		tr.end()
		tr.end()
	}
	tr.end()

	root, child, leaf := tr.stat("root"), tr.stat("child"), tr.stat("leaf")
	if root.Count != 1 || child.Count != 3 || leaf.Count != 3 {
		t.Fatalf("counts %d %d %d, want 1 3 3", root.Count, child.Count, leaf.Count)
	}
	// Self time is a span minus its direct children, so the self times of a
	// tree add up to its root, and a leaf's self time is its whole duration.
	if got := root.SelfNs + child.SelfNs + leaf.SelfNs; got != root.TotalNs {
		t.Errorf("self times add to %d ns, the root lasted %d ns", got, root.TotalNs)
	}
	if root.SelfNs != root.TotalNs-child.TotalNs || child.SelfNs != child.TotalNs-leaf.TotalNs || leaf.SelfNs != leaf.TotalNs {
		t.Errorf("self/total: root %d/%d child %d/%d leaf %d/%d", root.SelfNs, root.TotalNs, child.SelfNs, child.TotalNs, leaf.SelfNs, leaf.TotalNs)
	}
	if leaf.TotalNs < 3*int64(time.Millisecond) || leaf.MaxNs < int64(time.Millisecond) {
		t.Errorf("leaf total %d ns max %d ns after three 1 ms sleeps", leaf.TotalNs, leaf.MaxNs)
	}
	if len(tr.kept) != 7 {
		t.Fatalf("%d spans kept, want 7", len(tr.kept))
	}
	for _, s := range tr.kept {
		wantParent := map[string]int32{"root": -1, "child": 0}
		if p, ok := wantParent[s.Name]; ok && s.Parent != p {
			t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, p)
		}
		if s.Point != 1 {
			t.Errorf("span %s belongs to point %d, want 1", s.Name, s.Point)
		}
	}

	// A nil tracer is tracing off.
	var off *tracer
	off.begin("x")
	off.end()
	if off.stat("x").Count != 0 {
		t.Error("nil tracer recorded a span")
	}
}

func TestSpanThinning(t *testing.T) {
	tr := newTracer()
	const calls = keepAllBelow + 10*keepEvery
	for i := 0; i < calls; i++ {
		tr.begin("hot")
		tr.end()
	}
	if got := tr.stat("hot").Count; got != calls {
		t.Errorf("aggregate counts %d calls, want %d", got, calls)
	}
	if want := keepAllBelow + 10; len(tr.kept) != want {
		t.Errorf("%d spans kept, want %d", len(tr.kept), want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %g %g %g", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := declMetric{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := declMetric{Name: "flows_per_sec", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.01}
	noisy := []float64{0.8, 1.0, 1.3, 0.9, 1.2}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name       string
		olds, news []float64
		m          declMetric
		want       string
	}{
		{"slower beyond the bound", steady, scale(steady, 1.2), lower, "worse"},
		{"slower within the bound", steady, scale(steady, 1.05), lower, "same"},
		{"faster beyond the spread", steady, scale(steady, 0.9), lower, "better"},
		{"throughput fell beyond the bound", steady, scale(steady, 0.8), higher, "worse"},
		{"throughput rose", steady, scale(steady, 1.2), higher, "better"},
		{"spread wider than the bound", noisy, scale(noisy, 1.05), lower, "unresolved"},
		{"noisy, but every new run wins", noisy, scale(noisy, 0.5), lower, "better"},
	} {
		if got := verdict(c.olds, c.news, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
