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
	"flowbender/internal/sim"
)

// These tests pin the crash-safety contract end to end: a run that is
// interrupted at any checkpoint and resumed must produce output
// byte-identical to an uninterrupted run. The checkpoint layer is
// replay-based (see internal/checkpoint's package doc), so the property
// decomposes into three obligations covered here: (1) attaching a manager
// changes nothing about the simulation, (2) a resumed run serves completed
// experiments from the journal and re-executes in-flight points through
// their recorded watermarks, verifying them, and (3) a watermark that does
// NOT match the replay — tampering, skewed configuration, changed engine
// semantics — fails loudly instead of publishing silently-different results.

func ckptOpts() Options {
	return Options{Seed: 7, Scale: ScaleTiny, FlowCount: 40, Repeats: 1,
		CheckpointEvery: 10 * sim.Millisecond}
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

// TestCheckpointWatermarkVerifiedOnResume: a run records watermarks; the
// resumed run replays every point through the recorded barrier, where
// sim.Engine.VerifyRestore demands full state equality (any divergence
// panics, failing this test), and still renders identical bytes.
func TestCheckpointWatermarkVerifiedOnResume(t *testing.T) {
	o := ckptOpts()
	o.Parallelism = 4
	path := filepath.Join(t.TempDir(), "run.ckpt")
	m, err := checkpoint.Create(path, ckptDesc(o))
	if err != nil {
		t.Fatal(err)
	}
	oc := o
	oc.Ckpt = m
	var first bytes.Buffer
	AllToAll(oc).Print(&first)

	f, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	withEngines := 0
	for _, pm := range f.Marks {
		if len(pm.Engines) > 0 {
			withEngines++
		}
	}
	if withEngines == 0 {
		t.Fatalf("run recorded no verifiable watermarks (marks: %d)", len(f.Marks))
	}

	r, err := checkpoint.Open(path, ckptDesc(o))
	if err != nil {
		t.Fatal(err)
	}
	or := o
	or.Ckpt = r
	var second bytes.Buffer
	AllToAll(or).Print(&second)
	if second.String() != first.String() {
		t.Fatalf("resumed run differs from original:\n--- original ---\n%s\n--- resumed ---\n%s", first.String(), second.String())
	}
}

// TestResumeDetectsTamperedWatermark: corrupt one recorded engine digest
// and the resumed replay must panic with a divergence report naming the
// point, not silently continue.
func TestResumeDetectsTamperedWatermark(t *testing.T) {
	o := ckptOpts()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	m, err := checkpoint.Create(path, ckptDesc(o))
	if err != nil {
		t.Fatal(err)
	}
	oc := o
	oc.Ckpt = m
	AllToAll(oc).Print(&bytes.Buffer{})

	f, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for i := range f.Marks {
		if len(f.Marks[i].Engines) > 0 {
			f.Marks[i].Engines[0].QueueDigest ^= 1
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no watermark with engine state to tamper with")
	}
	if err := checkpoint.Save(path, f); err != nil {
		t.Fatal(err)
	}

	r, err := checkpoint.Open(path, ckptDesc(o))
	if err != nil {
		t.Fatal(err)
	}
	or := o
	or.Ckpt = r
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("resumed run accepted a tampered watermark")
		}
		msg := fmt.Sprint(rec)
		if !strings.Contains(msg, "diverged from checkpoint") {
			t.Fatalf("panic does not report divergence: %s", msg)
		}
		if !strings.Contains(msg, "point alltoall/") {
			t.Fatalf("panic does not identify the point: %s", msg)
		}
	}()
	AllToAll(or)
}

// TestCheckpointResumeParallelAndSharded: the resume property holds when
// points fan out across workers and when a point splits across engine
// shards (multi-engine watermarks, verified shard by shard).
func TestCheckpointResumeParallelAndSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, cfg := range []struct{ parallel, shards int }{{4, 0}, {1, 2}, {4, 4}} {
		t.Run(fmt.Sprintf("parallel=%d_shards=%d", cfg.parallel, cfg.shards), func(t *testing.T) {
			o := ckptOpts()
			o.Parallelism = cfg.parallel
			o.Shards = cfg.shards
			render := func(oo Options) string {
				var buf bytes.Buffer
				AllToAll(oo).Print(&buf)
				return buf.String()
			}
			base := render(o)

			path := filepath.Join(t.TempDir(), "run.ckpt")
			m, err := checkpoint.Create(path, ckptDesc(o))
			if err != nil {
				t.Fatal(err)
			}
			oc := o
			oc.Ckpt = m
			if got := render(oc); got != base {
				t.Fatal("checkpointed run differs from plain run")
			}
			if cfg.shards > 1 {
				f, err := checkpoint.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				multi := 0
				for _, pm := range f.Marks {
					if len(pm.Engines) > 1 {
						multi++
					}
				}
				if multi == 0 {
					t.Fatal("sharded run recorded no multi-engine watermarks")
				}
			}
			r, err := checkpoint.Open(path, ckptDesc(o))
			if err != nil {
				t.Fatal(err)
			}
			or := o
			or.Ckpt = r
			if got := render(or); got != base {
				t.Fatal("resumed run differs from plain run")
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
// (seed, cadence, scheme), running a point with checkpointing on and then
// replaying it from the file must verify every recorded watermark and
// reproduce the identical outcome. The seed corpus parks watermark instants
// inside the mechanisms most sensitive to replay order: RepFlow's
// replica-completion races, Flowlet's inter-burst gap boundaries, FlowDyn's
// load-refresh epochs, and FlowBender's congestion-driven reroute epochs.
func FuzzCheckpointResume(f *testing.F) {
	f.Add(int64(7), int64(5*sim.Millisecond), int64(6))   // RepFlow: marks between replica race arrivals
	f.Add(int64(3), int64(1*sim.Millisecond), int64(4))   // Flowlet: every engine chunk, inside flowlet gaps
	f.Add(int64(11), int64(25*sim.Millisecond), int64(5)) // FlowDyn: across load-refresh epochs
	f.Add(int64(1), int64(2*sim.Millisecond), int64(1))   // FlowBender: inside reroute epochs
	f.Add(int64(42), int64(50*sim.Millisecond), int64(0)) // ECMP baseline, sparse marks
	f.Add(int64(13), int64(10*sim.Millisecond), int64(7)) // DiffFlow spray selection
	f.Fuzz(func(t *testing.T, seed, cadence, si int64) {
		// Normalize fuzz inputs to a valid configuration: positive cadence
		// no coarser than the tiny run's duration, a registered scheme.
		cadence %= int64(100 * sim.Millisecond)
		if cadence <= 0 {
			cadence += int64(100 * sim.Millisecond)
		}
		scheme := AllSchemes[int(uint64(si)%uint64(len(AllSchemes)))]
		o := Options{Seed: seed % 10_000, Scale: ScaleTiny,
			CheckpointEvery: sim.Time(cadence)}
		o.pointKey = fmt.Sprintf("fuzz/%s", scheme)
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
		out2 := o2.runAllToAll(spec) // panics if any watermark fails to verify

		if out1.SimTime != out2.SimTime ||
			out1.DataPackets != out2.DataPackets ||
			out1.OutOfOrder != out2.OutOfOrder ||
			out1.Retransmits != out2.Retransmits ||
			out1.FCT.All().Mean() != out2.FCT.All().Mean() {
			t.Fatalf("replayed point diverged: first {t=%v pkts=%d ooo=%d rtx=%d mean=%v} second {t=%v pkts=%d ooo=%d rtx=%d mean=%v}",
				out1.SimTime, out1.DataPackets, out1.OutOfOrder, out1.Retransmits, out1.FCT.All().Mean(),
				out2.SimTime, out2.DataPackets, out2.OutOfOrder, out2.Retransmits, out2.FCT.All().Mean())
		}
	})
}
