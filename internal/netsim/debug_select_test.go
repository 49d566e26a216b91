package netsim

import (
	"testing"

	"flowbender/internal/sim"
)

// prefixPick is a cacheable selector that picks by the packet's hash
// prefix, as a static hash selector does.
type prefixPick struct{}

func (prefixPick) Select(_ *Switch, pkt *Packet, e []int32) int32 {
	return e[pkt.HashPrefix%uint64(len(e))]
}

func (prefixPick) Cacheable() bool { return true }

// pokeSelectCache plants a (deliberately wrong) memoized choice for pkt's
// key under the cache's current generation, as if an invalidation had been
// missed.
func pokeSelectCache(t *testing.T, s *Switch, pkt *Packet, port int32) {
	t.Helper()
	if !s.selCached || s.selCache == nil {
		t.Fatal("pokeSelectCache on a switch without a selector memo cache")
	}
	sl := &s.selCache[selCacheIndex(pkt.HashPrefix, pkt.Dst, pkt.PathTag)]
	*sl = selSlot{prefix: pkt.HashPrefix, dst: pkt.Dst, tag: pkt.PathTag, gen: s.selGen, port: port}
}

// TestSelectorMemoTripwire proves the simdebug hit cross-check actually
// fires: a memo slot poisoned with a wrong port (as if an invalidation had
// been missed) must panic on the next lookup instead of silently misrouting.
func TestSelectorMemoTripwire(t *testing.T) {
	if !sim.Debug {
		t.Skip("selector-memo tripwire needs -tags simdebug")
	}
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 8, 10_000_000_000, SwitchConfig{})
	all := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	routes := make([][]int32, 16)
	for i := range routes {
		routes[i] = all
	}
	sw.SetRoutes(routes)
	sw.SetSelector(prefixPick{})

	pkt := &Packet{
		Flow: 7, Src: 3, Dst: 13, SrcPort: 41000, DstPort: 80,
		Proto: ProtoTCP, PathTag: 2,
		HashPrefix: 0x9e3779b97f4a7c15, HashPrefixOK: true,
	}

	// Warm the memo and check hits agree with the selector while consistent.
	want := sw.SelectEgress(pkt)
	if got := sw.SelectEgress(pkt); got != want {
		t.Fatalf("memoized choice %d != first choice %d", got, want)
	}

	// Poison the slot with a different port under the current generation.
	pokeSelectCache(t, sw, pkt, (want+1)%8)
	mustPanic(t, "selector memo divergence", func() { sw.SelectEgress(pkt) })
}
