package experiments

import (
	"bytes"
	"testing"
)

// These tests pin the *behavioral* output of whole experiments to golden
// files captured on the pre-pooling seed tree. The event-engine rewrite
// (monomorphic 4-ary heap + event free list) and the packet free lists are
// required to be bit-invisible: every table these experiments print must not
// change by a single byte, at any parallelism level. A diff here means the
// optimisation changed scheduling order or recycled state leaked between
// packets/events — exactly the class of bug pooling introduces silently.
//
// Unlike golden_test.go (which pins formatting of fixed results), these run
// the real simulations, so they cover engine ordering, RNG draw order, TCP
// state machines, fault injection, and rendering end to end.
//
// The goldens were re-pinned once when same-instant event ordering became
// intrinsic (keyed by insertion instant, device, and port — see
// sim.AtTagged): a tie order that is a property of the simulated network,
// not of engine insertion history. The re-pin moved a handful of
// tie-sensitive cells by seed-level noise (qualitative results unchanged).

func byteIdentOpts() Options {
	return Options{Seed: 7, Scale: ScaleTiny, FlowCount: 40, Repeats: 1}
}

// checkByteIdentity renders the experiment at parallelism 1, 4, and 8 and
// requires all three to equal the checked-in golden capture.
func checkByteIdentity(t *testing.T, name string, render func(Options) string) {
	t.Helper()
	o := byteIdentOpts()
	o.Parallelism = 1
	seq := render(o)
	checkGolden(t, name, seq)
	for _, p := range []int{4, 8} {
		o.Parallelism = p
		if got := render(o); got != seq {
			t.Errorf("%s: output at -parallel %d differs from sequential", name, p)
		}
	}
}

func TestByteIdentityTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkByteIdentity(t, "byteident_table1", func(o Options) string {
		var buf bytes.Buffer
		Table1(o).Print(&buf)
		return buf.String()
	})
}

func TestByteIdentityAllToAll(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkByteIdentity(t, "byteident_alltoall", renderAllToAll)
}

// TestByteIdentityPaperFatTree pins the all-to-all output on the full §4.2
// fabric: 128 servers, 8 paths between pods. The tiny-scale pins above cover
// the logic; this one covers the paper-scale geometry — deeper ECMP fan-out,
// longer paths, and far larger concurrent event and flow populations — where
// an ordering bug in the calendar queue, the selector memo, or the dispatch
// table would surface even if the 16-server fabric masked it. The flow count
// is trimmed to keep the run affordable in CI.
func TestByteIdentityPaperFatTree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Seed: 7, Scale: ScalePaper, FlowCount: 120, Repeats: 1}
	o.Parallelism = 1
	seq := renderAllToAll(o)
	checkGolden(t, "byteident_paper_alltoall", seq)
	for _, p := range []int{4, 8} {
		o.Parallelism = p
		if got := renderAllToAll(o); got != seq {
			t.Errorf("paper fat-tree: output at -parallel %d differs from sequential", p)
		}
	}
}

func TestByteIdentityFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkByteIdentity(t, "byteident_faultmatrix", func(o Options) string {
		// A three-scenario slice keeps the matrix affordable while still
		// covering clean cuts, flapping, and gray loss — the fault paths
		// that exercise link-drop packet frees and event cancellation.
		o.FaultScenarios = []string{"cut", "flap10ms", "gray1"}
		return renderFaultMatrix(o)
	})
}
