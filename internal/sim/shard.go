package sim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// timeMax is the "no pending event" sentinel used by the shard scheduler.
const timeMax = Time(math.MaxInt64)

// barrier is a reusable sense-reversing spin barrier. Workers synchronize
// tens of thousands of times per simulated second, so parking on a channel
// or sync.Cond per window would dominate; a generation-counter spin with
// Gosched keeps the rendezvous in the tens of nanoseconds when all workers
// are running and stays live (if slow) when they are preempted.
type barrier struct {
	n     int64
	count atomic.Int64
	gen   atomic.Int64
}

// await blocks until all n workers have called it, then releases them
// together. The atomic generation bump publishes every write made before any
// worker's await to every worker after it (seq-cst happens-before).
func (b *barrier) await() {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for b.gen.Load() == g {
		runtime.Gosched()
	}
}

// ShardSet drives several engine instances — one fabric shard each — through
// conservatively synchronized bounded-lag windows.
//
// The contract: within a window [k·W, (k+1)·W) every shard executes only its
// own events; anything destined for another shard is deposited in a mailbox
// instead of being scheduled directly. W is the fabric's minimum positive
// cross-shard lookahead, i.e. no event executed inside a window can schedule
// an effect on another shard earlier than the window's end. At the barrier
// the mailboxes are drained by the Merge callback, which must insert the
// deferred work in a deterministic order, making the whole run bit-identical
// to serial execution at any shard and worker count.
type ShardSet struct {
	Engines []*Engine
	// Window is the bounded-lag width W. Must be positive and no larger
	// than the fabric's true minimum cross-shard delay (the simdebug build
	// verifies the latter at every merge).
	Window Time
	// Merge drains the cross-shard mailboxes addressed to `shard` and
	// schedules their contents on Engines[shard]. windowEnd is the first
	// instant of the next window; every injected event must land at or
	// after it. Merge for different shards may run concurrently, but each
	// shard's Merge runs on the worker that owns the shard, strictly
	// between the window barrier and the planning barrier.
	Merge func(shard int, windowEnd Time)
	// Tick, when non-nil, runs on worker 0 at every chunk boundary of Run,
	// with every shard quiescent and exactly the events at or before the
	// boundary executed — the same prefix a serial engine stopped there
	// would have run. Tick fires only when Run was given a done callback
	// (chunked execution).
	Tick func(boundary Time)
}

// Run advances every shard in lockstep windows until all engines drain, the
// virtual deadline passes, or done() reports true. done is evaluated with
// all shards quiescent at every `chunk` of virtual time, with exactly the
// events at or before the boundary executed — the same prefix a serial
// engine stopped at that boundary would have run — so a harness that stops
// on done() sees bit-identical state either way. Pass nil to run to the
// deadline. workers is the number of OS-schedulable goroutines to spread
// the shards over; each worker owns a fixed stripe of shards, so the
// simulation result is independent of the worker count — only wall time
// changes.
func (ss *ShardSet) Run(deadline, chunk Time, done func() bool, workers int) {
	n := len(ss.Engines)
	w := ss.Window
	if n == 0 || w <= 0 {
		panic("sim: ShardSet needs engines and a positive window")
	}
	if chunk <= 0 {
		chunk = deadline + 1
	}
	// Keep chunk boundaries on the window grid so `start` lands on them
	// exactly rather than stepping over.
	if r := chunk % w; r != 0 {
		chunk += w - r
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	bar := &barrier{n: int64(workers)}
	nexts := make([]atomic.Int64, n)
	var halt atomic.Bool

	worker := func(id int) {
		start := Time(0)
		chunkEnd := chunk
		for {
			if done != nil && start == chunkEnd {
				// Chunk boundary: execute the boundary instant itself, then
				// evaluate done. Windows end exclusively (events at `start`
				// belong to the next window), but a serial engine stopping
				// here would have run them — and their cross-shard effects
				// land at or after start+w by the lookahead bound, so they
				// wait in the mailboxes for the next merge just like any
				// other window-k output.
				for sh := id; sh < n; sh += workers {
					ss.Engines[sh].Run(start)
				}
				bar.await()
				if id == 0 {
					if ss.Tick != nil {
						ss.Tick(start)
					}
					if done() {
						halt.Store(true)
					}
				}
				bar.await()
				if halt.Load() {
					return
				}
				chunkEnd += chunk
			}

			end := start + w
			if end > deadline+1 {
				end = deadline + 1 // final window: execute events at the deadline itself
			}

			// Phase A: run each owned shard to the end of the window.
			for sh := id; sh < n; sh += workers {
				ss.Engines[sh].Run(end - 1)
			}
			bar.await()

			// Phase B: with every shard quiescent, merge inbound
			// cross-shard traffic and publish each shard's next due time.
			for sh := id; sh < n; sh += workers {
				ss.Merge(sh, end)
				if at, ok := ss.Engines[sh].NextAt(); ok {
					nexts[sh].Store(int64(at))
				} else {
					nexts[sh].Store(int64(timeMax))
				}
			}
			bar.await()

			// Phase C: every worker computes the identical continuation
			// decision from the shared next-event times.
			gnext := timeMax
			for sh := 0; sh < n; sh++ {
				if t := Time(nexts[sh].Load()); t < gnext {
					gnext = t
				}
			}
			if gnext == timeMax {
				return // all engines drained; mailboxes were emptied in Phase B
			}
			start = end
			// Skip straight to the window holding the globally next event;
			// low-load tails would otherwise burn barriers on empty windows.
			// Never skip past a pending chunk boundary, though: its done()
			// checkpoint must still fire (cheap — the boundary run is a
			// no-op when no events are due there).
			if g := gnext / w * w; g > start {
				start = g
			}
			if done != nil && start > chunkEnd {
				start = chunkEnd
			}
			if start > deadline {
				return
			}
		}
	}

	var wg sync.WaitGroup
	for id := 1; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker(id)
		}(id)
	}
	worker(0)
	wg.Wait()
}
