// Package runpool fans independent tasks out across a bounded set of
// goroutines and hands their results back in submission order.
//
// The experiment harness uses it to run simulation points — each an
// isolated sim.Engine with its own forked RNG — in parallel without
// perturbing output: because results are collected in the order tasks were
// submitted, anything built from them (tables, normalizations, logs) is
// byte-identical to a sequential run of the same points.
//
// Tasks submitted to a pool must not block waiting on other tasks in the
// same pool: a task holds one of the pool's slots for its whole run, so
// parent tasks waiting on children can exhaust the slots and deadlock.
// Orchestration code that only submits and waits (like MapResultsNamed callers)
// runs outside the pool and is safe.
package runpool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// PanicError is the per-point error a recovered task panic is converted to
// by Result/MapResultsNamed: the sweep keeps going and the failed point
// carries the panic value and stack instead of crashing the process.
type PanicError struct {
	// Value is what the task panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
	// Point identifies the task when it was submitted through a named API
	// (experiment/scheme/seed), so a FAILED line alone is enough to
	// reproduce the crashing simulation point.
	Point string
}

func (e *PanicError) Error() string {
	if e.Point != "" {
		return fmt.Sprintf("point %s panicked: %v", e.Point, e.Value)
	}
	return fmt.Sprintf("task panicked: %v", e.Value)
}

// WatchdogError reports a task that exceeded the pool's wall-clock watchdog.
// The runaway goroutine cannot be killed: it keeps running (and keeps
// holding its pool slot) until it finishes on its own; only the Future is
// resolved early so the sweep can report the point as failed and move on.
type WatchdogError struct {
	// Limit is the watchdog duration that was exceeded.
	Limit time.Duration
	// Point identifies the task when it was submitted through a named API.
	Point string
	// Retried reports that this was already the point's second attempt
	// (see the named Map variants' bounded single retry).
	Retried bool
}

func (e *WatchdogError) Error() string {
	msg := fmt.Sprintf("task exceeded the %v wall-clock watchdog", e.Limit)
	if e.Point != "" {
		msg = fmt.Sprintf("point %s exceeded the %v wall-clock watchdog", e.Point, e.Limit)
	}
	if e.Retried {
		msg += " (twice: original attempt and one checkpoint retry)"
	}
	return msg
}

// Pool bounds how many submitted tasks run concurrently. Create one with
// New; the zero value is not usable.
type Pool struct {
	sem      chan struct{}
	watchdog time.Duration

	mu      sync.Mutex
	scratch []any // see TakeScratch
}

// New returns a pool that runs at most parallelism tasks at once.
// parallelism <= 0 selects runtime.GOMAXPROCS(0); parallelism == 1 gives
// fully sequential execution (tasks still run on their own goroutines, but
// one at a time, in submission order).
func New(parallelism int) *Pool {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, parallelism)}
}

// TakeScratch hands the caller one value a finished task left with
// PutScratch, or nil when there is none. It lets consecutive tasks on the
// pool pass expensive reusable state (a simulation engine and its arenas)
// from one to the next: a task takes a value at its start — building a new
// one on nil — owns it exclusively while it runs, and puts it back when it
// no longer reads it. The values are opaque to the pool and live exactly as
// long as it does; unlike a sync.Pool's, they are never dropped behind the
// tasks' back, so what a sweep allocates does not depend on when the
// collector ran.
func (p *Pool) TakeScratch() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.scratch)
	if n == 0 {
		return nil
	}
	v := p.scratch[n-1]
	p.scratch[n-1] = nil
	p.scratch = p.scratch[:n-1]
	return v
}

// PutScratch leaves v for a later task's TakeScratch. The list never holds
// more values than the pool runs tasks at once — no more can be in use
// together, so a value beyond that (put by a task the watchdog abandoned, or
// by a caller outside the pool's slots) is dropped.
func (p *Pool) PutScratch(v any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.scratch) < cap(p.sem) {
		p.scratch = append(p.scratch, v)
	}
}

// ScratchHeld returns how many values PutScratch is currently holding.
func (p *Pool) ScratchHeld() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.scratch)
}

// SetWatchdog arms a wall-clock watchdog on every subsequently submitted
// task: a task running longer than d resolves its Future with a
// WatchdogError so the sweep can report the point as failed and keep going
// (the runaway goroutine itself cannot be stopped and keeps holding its pool
// slot until it returns). d <= 0 (the default) disables the watchdog.
//
// The watchdog trades determinism for liveness: whether a borderline point
// trips it depends on machine speed, so leave it off when byte-identical
// output matters and a hang is not a concern.
func (p *Pool) SetWatchdog(d time.Duration) { p.watchdog = d }

// result carries a task's return value or its failure.
type result[T any] struct {
	val T
	err error // *PanicError or *WatchdogError
}

// Future is the pending result of one submitted task.
type Future[T any] struct {
	once sync.Once
	ch   chan result[T]
	res  result[T]
}

// SubmitNamed schedules fn on the pool and returns a Future for its result.
// The task starts as soon as a slot frees up; SubmitNamed itself never
// blocks. Any PanicError or WatchdogError the task resolves with carries the
// point label, so failures are identifiable (and reproducible) from the
// error alone.
func SubmitNamed[T any](p *Pool, point string, fn func() T) *Future[T] {
	// Capacity 2: with a watchdog armed, both the timeout and the (late)
	// task result may be sent; the Future keeps whichever arrives first and
	// neither sender ever blocks.
	f := &Future[T]{ch: make(chan result[T], 2)}
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		if wd := p.watchdog; wd > 0 {
			timer := time.AfterFunc(wd, func() {
				f.ch <- result[T]{err: &WatchdogError{Limit: wd, Point: point}}
			})
			defer timer.Stop()
		}
		defer func() {
			if r := recover(); r != nil {
				f.ch <- result[T]{err: &PanicError{Value: r, Stack: debug.Stack(), Point: point}}
			}
		}()
		f.ch <- result[T]{val: fn()}
	}()
	return f
}

// Wait blocks until the task finishes and returns its result. If the task
// panicked, Wait re-panics with the same value in the caller's goroutine,
// so a crashing simulation point fails the run just as it would have
// sequentially; a watchdog timeout panics with the WatchdogError. Use
// Result to degrade gracefully instead. Wait may be called more than once.
func (f *Future[T]) Wait() T {
	v, err := f.Result()
	if pe, ok := err.(*PanicError); ok {
		panic(pe.Value)
	}
	if err != nil {
		panic(err)
	}
	return v
}

// Result blocks until the task finishes and returns its value, or a non-nil
// error (*PanicError, *WatchdogError) describing why the point failed. It
// never panics, making it the crash-proof counterpart of Wait. Result may be
// called more than once and mixed with Wait.
func (f *Future[T]) Result() (T, error) {
	f.once.Do(func() { f.res = <-f.ch })
	return f.res.val, f.res.err
}

// MapN runs fn(0..n-1) concurrently (bounded by the pool) and returns the
// results in index order, independent of scheduling. A failed index fails the
// call as Future.Wait would — a task's panic re-panics with its value, a
// watchdog timeout with the WatchdogError — but only once every future has
// resolved, and it is the first failure in index order that is raised: the
// caller never unwinds while sibling tasks are still running on state it is
// about to tear down.
func MapN[Out any](p *Pool, n int, fn func(int) Out) []Out {
	futs := make([]*Future[Out], n)
	for i := 0; i < n; i++ {
		i := i
		futs[i] = SubmitNamed(p, "", func() Out { return fn(i) })
	}
	for _, f := range futs {
		f.Result()
	}
	out := make([]Out, n)
	for i, f := range futs {
		out[i] = f.Wait()
	}
	return out
}

// TaskResult is one MapResultsNamed outcome: the task's value, or the error
// it failed with (Err non-nil means Val is the zero value).
type TaskResult[T any] struct {
	Val T
	Err error
}

// resultRetryWatchdog collects a named task's result, retrying a
// watchdog-timed-out point exactly once. The retry is deliberately a plain
// resubmission of the same deterministic closure — same seed, same
// options — and there is exactly one, with no backoff loop: a point that times out twice is genuinely wedged
// (or the watchdog genuinely too tight) and anything more would mask a
// determinism or livelock bug behind unbounded retries. The first
// attempt's runaway goroutine cannot be killed and keeps running; its
// duplicate is harmless because points are isolated pure functions.
func resultRetryWatchdog[T any](p *Pool, point string, fn func() T, f *Future[T]) (T, error) {
	v, err := f.Result()
	if _, ok := err.(*WatchdogError); !ok {
		return v, err
	}
	v2, err2 := SubmitNamed(p, point, fn).Result()
	if we2, ok := err2.(*WatchdogError); ok {
		we2.Retried = true
	}
	return v2, err2
}

// MapResultsNamed runs fn over every item concurrently (bounded by the pool)
// with a per-item point label (used for failure identification) and returns per-item results in item order. A panicking or
// watchdog-timed-out item does not abort the sweep: its slot carries the
// error — labeled with the item's point, after a bounded single retry of a
// watchdog timeout — and every other item still completes and reports.
func MapResultsNamed[In, Out any](p *Pool, items []In, name func(In) string, fn func(In) Out) []TaskResult[Out] {
	futs := make([]*Future[Out], len(items))
	for i := range items {
		it := items[i]
		futs[i] = SubmitNamed(p, name(it), func() Out { return fn(it) })
	}
	out := make([]TaskResult[Out], len(items))
	for i, f := range futs {
		it := items[i]
		out[i].Val, out[i].Err = resultRetryWatchdog(p, name(it), func() Out { return fn(it) }, f)
	}
	return out
}
