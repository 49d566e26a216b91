//go:build simdebug

package experiments

import (
	"strings"
	"testing"

	"flowbender/internal/sim"
)

// Widening the bounded-lag window beyond the fabric's true minimum cross-
// shard delay must trip the simdebug lookahead check at the first merge that
// receives traffic: a too-wide window means a consuming shard's clock can
// pass an inbound effect's due time before the merge delivers it, which is
// exactly the class of bug the conservative protocol exists to rule out.
func TestSimdebugShardLookaheadTripwire(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("oversized bounded-lag window did not trip the lookahead check")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "lookahead violated") {
			t.Fatalf("panic = %v; want the lookahead tripwire", r)
		}
	}()
	o := Options{Seed: 7, Scale: ScaleTiny, Shards: 2}
	// TinyScale's true lookahead is the 1µs switch forwarding delay; claim 4x.
	o.debugShardWindow = 4 * sim.Microsecond
	o.runAllToAll(allToAllSpec{scheme: ECMP, load: 0.6, flows: 50})
}
