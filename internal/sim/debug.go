package sim

import (
	"fmt"
	"sort"
)

// poisonTime is written into recycled events so any code that reads a stale
// handle's time sees an absurd value even if it bypasses the panic below.
const poisonTime Time = -0x5151515151515151

// debugAccess panics when a public Event method touches a handle that the
// engine has recycled into its free list — the use-after-free window that
// silently corrupts determinism in release builds if a caller violates the
// handle-lifetime contract. The generation counter in the message tells you
// how many times the object has been reused.
func (e *Event) debugAccess(method string) {
	if !Debug {
		return
	}
	if e.pooled {
		panic(fmt.Sprintf("sim: %s on recycled event handle (gen %d, poisoned at=%d): handle retained after the event fired or was reclaimed",
			method, e.gen, e.at))
	}
}

// debugAlloc validates an event coming off the free list.
func (e *Engine) debugAlloc(ev *Event) {
	if !Debug {
		return
	}
	if !ev.pooled {
		panic(fmt.Sprintf("sim: free list returned a live event (gen %d)", ev.gen))
	}
	if ev.at != poisonTime {
		panic(fmt.Sprintf("sim: free-list event not poisoned (at=%d, gen %d): double release or external write", ev.at, ev.gen))
	}
}

// debugRelease poisons an event as it enters the free list.
func (e *Engine) debugRelease(ev *Event) {
	if !Debug {
		return
	}
	ev.at = poisonTime
}

// debugQueueDump renders the first n live pending-event keys in pop order,
// for the VerifyRestore divergence diagnostic: comparing the recorded and
// restored heads shows exactly which scheduled instant first went wrong.
func (e *Engine) debugQueueDump(n int) string {
	if !Debug {
		return ""
	}
	live := e.liveEntries(nil)
	sort.Slice(live, func(i, j int) bool { return live[i].before(live[j]) })
	if len(live) > n {
		live = live[:n]
	}
	s := "\n  restored queue head:"
	for _, en := range live {
		s += fmt.Sprintf("\n    at=%d ins=%d tag=%#x ctr=%d",
			en.at, en.ins, en.seq>>seqCounterBits, en.seq&(1<<seqCounterBits-1))
	}
	return s
}
