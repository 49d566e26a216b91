package experiments

import (
	"math"
	"testing"
)

// The paper's claims as assertions on result fields, each over several seeds
// (one seed is not evidence: see the fidelity ladder in EXPERIMENTS.md). The
// bands come from the numbers EXPERIMENTS.md reports; where this simulator
// misses the paper's magnitude, the test names the gap.

// claimSeeds are the seeds every claim runs over.
var claimSeeds = []int64{1, 2, 3}

// TestClaimHotspotDrainsU checks EXPERIMENTS.md "§4.3.1 — decongesting a
// pinned-UDP hotspot": FlowBender steers TCP off the UDP path U. Over seeds
// 1–3 at tiny scale FlowBender leaves a mean 2.03 Gbps on U against ECMP's
// 2.93, a ratio of 0.69; the small-scale figures there give 0.61. The
// paper's ~1.5 against ~3.5 (0.43) is not reached: below saturation the
// marking rate on U falls and newly hashed flows take a few RTTs to bend
// away. The claim is asserted on the mean, not per seed: at seed 3 ECMP's
// hash mostly missed U (1.34 against FlowBender's 1.36).
func TestClaimHotspotDrainsU(t *testing.T) {
	var ecmp, fb float64
	for _, seed := range claimSeeds {
		r := Hotspot(Options{Seed: seed, Scale: ScaleTiny})
		t.Logf("seed %d: TCP on U ECMP %.2f, FlowBender %.2f Gbps", seed, r.TCPOnU[ECMP], r.TCPOnU[FlowBender])
		ecmp += r.TCPOnU[ECMP] / float64(len(claimSeeds))
		fb += r.TCPOnU[FlowBender] / float64(len(claimSeeds))
	}
	if !(ecmp > 0) || !(fb <= 0.8*ecmp) {
		t.Fatalf("mean TCP on U: FlowBender %.2f Gbps, ECMP %.2f (ratio %.2f); want at most 0.8",
			fb, ecmp, fb/ecmp)
	}
}

// TestClaimLinkFailureRecovery checks EXPERIMENTS.md "§3.3.2 — link-failure
// recovery within ~RTO": after an aggregation-to-core cable is cut under
// stale routing tables, an RTO re-draws FlowBender's path, so it completes
// more flows than ECMP at every seed (7, 7 and 5 of 8 against 1 of 8 at
// tiny scale), while an ECMP flow that hashed onto the dead cable never
// finishes: none of ECMP's RTO-hit flows completes, so its affected mean is
// NaN.
func TestClaimLinkFailureRecovery(t *testing.T) {
	for _, seed := range claimSeeds {
		r := LinkFailure(Options{Seed: seed, Scale: ScaleTiny})
		t.Logf("seed %d: completed ECMP %d, FlowBender %d of %d", seed, r.Completed[ECMP], r.Completed[FlowBender], r.Total)
		if r.Completed[FlowBender] <= r.Completed[ECMP] {
			t.Errorf("seed %d: FlowBender completed %d of %d flows, ECMP %d; want more",
				seed, r.Completed[FlowBender], r.Total, r.Completed[ECMP])
		}
		if r.Affected[ECMP] == 0 {
			t.Errorf("seed %d: no ECMP flow hit an RTO; the cut missed every path", seed)
		}
		if m := r.MeanAffectedFCTms[ECMP]; !math.IsNaN(m) {
			t.Errorf("seed %d: ECMP's RTO-hit flows finished in a mean %.1f ms; want none to finish", seed, m)
		}
	}
}
