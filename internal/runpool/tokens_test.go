package runpool

import "testing"

func TestTryAcquireRespectsBudget(t *testing.T) {
	p := New(4)
	if got := p.TryAcquire(2); got != 2 {
		t.Fatalf("TryAcquire(2) on empty pool = %d; want 2", got)
	}
	if got := p.TryAcquire(10); got != 2 {
		t.Fatalf("TryAcquire(10) with 2 free = %d; want 2", got)
	}
	if got := p.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire(1) on full pool = %d; want 0", got)
	}
	p.Release(4)
	if got := p.TryAcquire(4); got != 4 {
		t.Fatalf("TryAcquire(4) after release = %d; want 4", got)
	}
	p.Release(4)
}

// Tokens borrowed by a running task come out of the same budget that admits
// sibling tasks: with the pool saturated by tasks, TryAcquire gets nothing,
// and tokens grabbed up front keep tasks queued.
func TestTryAcquireSharesBudgetWithTasks(t *testing.T) {
	p := New(2)
	block := make(chan struct{})
	started := make(chan struct{}, 2)
	f1 := SubmitNamed(p, "", func() int { started <- struct{}{}; <-block; return 1 })
	f2 := SubmitNamed(p, "", func() int { started <- struct{}{}; <-block; return 2 })
	<-started
	<-started
	if got := p.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire with pool saturated by tasks = %d; want 0", got)
	}
	close(block)
	if f1.Wait() != 1 || f2.Wait() != 2 {
		t.Fatal("tasks returned wrong values")
	}
	if got := p.TryAcquire(2); got != 2 {
		t.Fatalf("TryAcquire after tasks drained = %d; want 2", got)
	}
	p.Release(2)
}
