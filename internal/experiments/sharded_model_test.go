package experiments

import (
	"math/rand"
	"testing"

	"flowbender/internal/topo"
)

// randShardSpec draws a random small fat-tree and workload (within the
// topology builder's validity rules) plus a shard count, all from seed. The
// same seed always draws the same case, so fuzz findings replay exactly.
func randShardSpec(seed int64) (allToAllSpec, int) {
	rng := rand.New(rand.NewSource(seed))
	p := topo.TinyScale()
	p.Pods = 2 + rng.Intn(2)
	p.TorsPerPod = 1 + rng.Intn(3)
	p.AggsPerPod = 1 + rng.Intn(2)
	p.ServersPerTor = p.AggsPerPod * (1 + rng.Intn(3))
	p.CoreUplinksPerAgg = 1 + rng.Intn(2)
	spec := allToAllSpec{
		scheme: ECMP,
		load:   0.2 + 0.5*rng.Float64(),
		flows:  20 + rng.Intn(100),
		params: &p,
	}
	return spec, 2 + rng.Intn(7)
}

// checkShardCase runs one randomized case serially and sharded and requires
// identical per-flow observables. Cases the shard plan refuses (no positive
// lookahead) compare the one-engine run with itself, which holds trivially.
func checkShardCase(t *testing.T, seed int64) {
	t.Helper()
	spec, shards := randShardSpec(seed)
	o := Options{Seed: seed, Scale: ScaleTiny}
	want := flowFingerprint(o.runAllToAll(spec))
	os := o
	os.Shards = shards
	out := os.runAllToAll(spec)
	if got := flowFingerprint(out); got != want {
		t.Errorf("seed %d shards=%d topo=%+v flows=%d: sharded diverges from serial:\n%s",
			seed, shards, *spec.params, spec.flows, firstDiff(want, got))
	}
}

// TestShardedModelCheck is the quick randomized sweep: a spread of small
// topologies, loads, flow counts, and shard counts, each compared flow-by-
// flow against serial execution.
func TestShardedModelCheck(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		checkShardCase(t, seed)
	}
}

// FuzzSharded lets the fuzzer hunt for (topology, workload, shard count)
// combinations where the sharded engine diverges from serial. The checked-in
// corpus pins the cases that caught real bugs during development.
func FuzzSharded(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkShardCase(t, seed)
	})
}
