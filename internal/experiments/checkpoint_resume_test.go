package experiments

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"flowbender/internal/checkpoint"
)

// These tests pin the crash-safety contract end to end: a run that is
// interrupted at any instant and resumed must produce output byte-identical
// to an uninterrupted run. The checkpoint layer is a journal of completed
// experiments (see internal/checkpoint's package doc), so the property
// decomposes into two obligations covered here: (1) attaching a manager
// changes nothing about the simulation, and (2) a resumed run serves
// completed experiments from the journal and reruns the rest from the start,
// at any -parallel and -shards setting. The refusals of a file written by
// another configuration or binary are tested in runspec_test.go and in
// internal/checkpoint.

func ckptOpts() Options {
	return Options{Seed: 7, Scale: ScaleTiny, FlowCount: 40, Repeats: 1}
}

func ckptDesc(o Options) checkpoint.Descriptor { return o.Descriptor("test") }

func renderRegistry(o Options, reg []RegistryEntry) string {
	var buf bytes.Buffer
	runExperiments(o, &buf, reg)
	return buf.String()
}

// TestCheckpointAttachIsInvisible: the same run with and without a manager
// attached renders byte-identical output — checkpointing must observe the
// simulation, never steer it.
func TestCheckpointAttachIsInvisible(t *testing.T) {
	o := ckptOpts()
	o.Parallelism = 4
	var base bytes.Buffer
	AllToAll(o).Print(&base)

	m, err := checkpoint.Create(filepath.Join(t.TempDir(), "run.ckpt"), ckptDesc(o))
	if err != nil {
		t.Fatal(err)
	}
	oc := o
	oc.Ckpt = m
	var got bytes.Buffer
	AllToAll(oc).Print(&got)
	if got.String() != base.String() {
		t.Fatalf("attaching a checkpoint manager changed the output:\n--- without ---\n%s\n--- with ---\n%s", base.String(), got.String())
	}
}

// TestCheckpointResumeParallelAndSharded: the resume property holds when
// points fan out across workers and when a point splits across engine
// shards, and when the resumed run spreads the work differently from the run
// that wrote the file. The checkpointed run journals alltoall; the resumed
// run serves it from the journal and, as an experiment still in flight
// would, also reruns it under the resumed file. All three match the plain
// run byte for byte.
func TestCheckpointResumeParallelAndSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	type spread struct{ parallel, shards int }
	for _, tc := range []struct{ run, resume spread }{
		{spread{4, 0}, spread{4, 0}}, {spread{1, 2}, spread{1, 2}}, {spread{4, 4}, spread{4, 4}},
		{spread{4, 2}, spread{1, 1}}, {spread{1, 1}, spread{4, 2}},
	} {
		name := fmt.Sprintf("parallel=%d_shards=%d", tc.run.parallel, tc.run.shards)
		if tc.resume != tc.run {
			name += fmt.Sprintf("_resumed_at_parallel=%d_shards=%d", tc.resume.parallel, tc.resume.shards)
		}
		t.Run(name, func(t *testing.T) {
			at := func(s spread) Options {
				o := ckptOpts()
				o.Parallelism, o.Shards = s.parallel, s.shards
				return o
			}
			e, ok := Lookup("alltoall")
			if !ok {
				t.Fatal("no alltoall experiment")
			}
			var buf bytes.Buffer
			AllToAll(at(tc.run)).Print(&buf)
			base := buf.String()

			path := filepath.Join(t.TempDir(), "run.ckpt")
			oc := at(tc.run)
			m, err := checkpoint.Create(path, ckptDesc(oc))
			if err != nil {
				t.Fatal(err)
			}
			oc.Ckpt = m
			if _, got, err := e.Execute(oc); err != nil || got != base {
				t.Fatalf("checkpointed run differs from plain run (err %v)", err)
			}

			or := at(tc.resume)
			if or.Ckpt, err = checkpoint.Open(path, ckptDesc(or)); err != nil {
				t.Fatal(err)
			}
			if res, got, err := e.Execute(or); err != nil || res != nil || got != base {
				t.Fatalf("resumed run did not serve the journaled output (err %v, simulated %v)", err, res != nil)
			}
			buf.Reset()
			AllToAll(or).Print(&buf)
			if buf.String() != base {
				t.Fatal("rerun under the resumed file differs from plain run")
			}
		})
	}
}

// staticPrintable is a deterministic stand-in experiment result: the
// journal operates on rendered experiment output, so these tests don't
// need a real simulation underneath (killresume.sh covers that end to
// end against the live registry).
type staticPrintable string

func (s staticPrintable) Print(w io.Writer) { fmt.Fprintln(w, string(s)) }

// TestRunAllJournalSkipsCompleted simulates the crash-and-rerun workflow:
// one experiment completes (journaled), one crashes (not journaled). The
// resumed RunAll serves the completed experiment from the journal — proven
// by an execution counter — re-runs only the crashed one, and renders
// byte-identical output.
func TestRunAllJournalSkipsCompleted(t *testing.T) {
	var runs atomic.Int32
	reg := []RegistryEntry{
		{Name: "t1", Desc: "counted healthy experiment",
			Run: func(o Options) Printable { runs.Add(1); return staticPrintable("table one") }},
		{Name: "boom", Desc: "always panics",
			Run: func(Options) Printable { panic("experiment exploded") }},
	}
	o := ckptOpts()
	o.Parallelism = 2
	base := renderRegistry(o, reg)
	if !strings.Contains(base, "FAILED: experiment exploded") {
		t.Fatalf("baseline does not report the crashed experiment:\n%s", base)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	m, err := checkpoint.Create(path, ckptDesc(o))
	if err != nil {
		t.Fatal(err)
	}
	oc := o
	oc.Ckpt = m
	if got := renderRegistry(oc, reg); got != base {
		t.Fatal("checkpointed run differs from plain run")
	}
	if runs.Load() != 2 {
		t.Fatalf("healthy experiment ran %d times before resume, want 2", runs.Load())
	}
	if _, ok := m.Done("boom"); ok {
		t.Fatal("crashed experiment was journaled as done")
	}

	r, err := checkpoint.Open(path, ckptDesc(o))
	if err != nil {
		t.Fatal(err)
	}
	or := o
	or.Ckpt = r
	var log bytes.Buffer
	or.Log = &log
	if got := renderRegistry(or, reg); got != base {
		t.Fatal("resumed run differs from plain run")
	}
	if runs.Load() != 2 {
		t.Fatalf("resume re-ran the journaled experiment (%d executions, want still 2)", runs.Load())
	}
	if !strings.Contains(log.String(), "served from checkpoint journal") {
		t.Fatalf("resume log does not mention the journal hit:\n%s", log.String())
	}
}

// TestFailedPointCarriesLabel: a panicking simulation point is reported
// with its full point label (experiment, coordinates, scheme, seed), so the
// FAILED line alone reproduces it.
func TestFailedPointCarriesLabel(t *testing.T) {
	o := Options{Seed: 7, Scale: ScaleTiny, Parallelism: 2,
		FaultScenarios: []string{"bogus"}}
	res := FaultMatrix(o)
	c := res.Cells["bogus"][ECMP]
	if !strings.Contains(c.Err, "point faults/bogus/ECMP/seed=7 panicked") {
		t.Fatalf("failed cell does not identify its point: %q", c.Err)
	}
}

// FuzzCheckpointResume is the kill-and-resume property test: for arbitrary
// (seed, scheme), a point run with a checkpoint attached and rerun under
// the resumed file reproduces the identical outcome. The seed corpus picks
// the mechanisms most sensitive to event order: RepFlow's
// replica-completion races, Flowlet's inter-burst gap boundaries, FlowDyn's
// load-refresh epochs, and FlowBender's congestion-driven reroute epochs.
func FuzzCheckpointResume(f *testing.F) {
	f.Add(int64(7), int64(6))  // RepFlow: replica race arrivals
	f.Add(int64(3), int64(4))  // Flowlet: flowlet gaps
	f.Add(int64(11), int64(5)) // FlowDyn: load-refresh epochs
	f.Add(int64(1), int64(1))  // FlowBender: reroute epochs
	f.Add(int64(42), int64(0)) // ECMP baseline
	f.Add(int64(13), int64(7)) // DiffFlow spray selection
	f.Fuzz(func(t *testing.T, seed, si int64) {
		scheme := AllSchemes[int(uint64(si)%uint64(len(AllSchemes)))]
		o := Options{Seed: seed % 10_000, Scale: ScaleTiny}
		spec := allToAllSpec{scheme: scheme, load: 0.4, flows: 30}

		path := filepath.Join(t.TempDir(), "run.ckpt")
		desc := ckptDesc(o)
		m, err := checkpoint.Create(path, desc)
		if err != nil {
			t.Fatal(err)
		}
		o1 := o
		o1.Ckpt = m
		out1 := o1.runAllToAll(spec)

		r, err := checkpoint.Open(path, desc)
		if err != nil {
			t.Fatal(err)
		}
		o2 := o
		o2.Ckpt = r
		out2 := o2.runAllToAll(spec)

		if out1.SimTime != out2.SimTime ||
			out1.DataPackets != out2.DataPackets ||
			out1.OutOfOrder != out2.OutOfOrder ||
			out1.Retransmits != out2.Retransmits ||
			out1.FCT.All().Mean() != out2.FCT.All().Mean() {
			t.Fatalf("rerun point diverged: first {t=%v pkts=%d ooo=%d rtx=%d mean=%v} second {t=%v pkts=%d ooo=%d rtx=%d mean=%v}",
				out1.SimTime, out1.DataPackets, out1.OutOfOrder, out1.Retransmits, out1.FCT.All().Mean(),
				out2.SimTime, out2.DataPackets, out2.OutOfOrder, out2.Retransmits, out2.FCT.All().Mean())
		}
	})
}
