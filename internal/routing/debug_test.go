package routing

import (
	"strings"
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// TestDebugCheckPrefixFires proves the simdebug cross-check catches a packet
// carrying a stale or misstamped hash prefix: flowKeyHash must panic instead
// of silently resuming from the wrong state (which would misroute the flow in
// release builds).
func TestDebugCheckPrefixFires(t *testing.T) {
	if !sim.Debug {
		t.Skip("requires -tags simdebug")
	}
	pkt := &netsim.Packet{
		Src: 3, Dst: 13, SrcPort: 41000, DstPort: 80, Proto: netsim.ProtoTCP,
	}
	good := FlowHashPrefix(pkt.Src, pkt.Dst, pkt.SrcPort, pkt.DstPort, pkt.Proto)

	// A correct prefix resumes to exactly the cold hash.
	cold := flowKeyHash(pkt, 42)
	pkt.HashPrefix = good
	pkt.HashPrefixOK = true
	if got := flowKeyHash(pkt, 42); got != cold {
		t.Fatalf("resumed hash %#x != cold hash %#x", got, cold)
	}

	// A corrupted prefix must trip the tripwire.
	pkt.HashPrefix = good ^ 1
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("flowKeyHash accepted a corrupted hash prefix")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "hash-prefix divergence") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	flowKeyHash(pkt, 42)
}
