package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// drawOne makes one draw of kind k from r and renders it.
func drawOne(r *rand.Rand, k int) string {
	switch k {
	case 0:
		return fmt.Sprint(r.Intn(1000))
	case 1:
		return fmt.Sprint(r.Int63n(1 << 40))
	case 2:
		return fmt.Sprint(r.Float64())
	case 3:
		return fmt.Sprint(r.ExpFloat64())
	case 4:
		return fmt.Sprint(r.NormFloat64())
	case 5:
		return fmt.Sprint(r.Uint64())
	case 6:
		return fmt.Sprint(r.Perm(7))
	default:
		s := []int{0, 1, 2, 3, 4, 5, 6}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return fmt.Sprint(s)
	}
}

// TestStreamsDrawWhatMathRandDraws: a stream builds its generator on its
// first draw, and draws exactly what rand.New(rand.NewSource(seed)) draws —
// root and forks, drawn in an interleaved order, forks of drawn and undrawn
// streams, some first drawn thousands of draws after they were forked.
func TestStreamsDrawWhatMathRandDraws(t *testing.T) {
	order := rand.New(rand.NewSource(99))
	streams := []*RNG{NewRNG(5)}
	refs := []*rand.Rand{rand.New(rand.NewSource(5))}
	forkedAt, firstDraw, wake := []int{0}, []int{-1}, []int{0}
	for step := range 20_000 {
		i := len(streams) - 1 - order.Intn(min(len(streams), 6)) // mostly the newest
		if order.Intn(10) == 0 {
			i = order.Intn(len(streams))
		}
		if step < wake[i] {
			continue
		}
		if order.Intn(200) == 0 {
			name := fmt.Sprint("stream", step)
			c := streams[i].Fork(name)
			if twin := NewRNG(streams[i].src.seed).Fork(name); c.src.seed != twin.src.seed {
				t.Fatalf("a fork of a drawn stream has seed %d, of an undrawn one %d", c.src.seed, twin.src.seed)
			}
			streams, refs = append(streams, c), append(refs, rand.New(rand.NewSource(c.src.seed)))
			forkedAt, firstDraw, wake = append(forkedAt, step), append(firstDraw, -1), append(wake, 0)
			if len(streams)%4 == 0 {
				wake[len(wake)-1] = step + 5_000 // parked: first drawn thousands of draws later
			}
			continue
		}
		k := order.Intn(8)
		if got, want := drawOne(streams[i].Rand, k), drawOne(refs[i], k); got != want {
			t.Fatalf("step %d, stream %d, draw kind %d: %s, math/rand draws %s", step, i, k, got, want)
		}
		if firstDraw[i] < 0 {
			firstDraw[i] = step
		}
	}
	late := 0
	for i := range streams {
		if firstDraw[i]-forkedAt[i] > 5_000 {
			late++
		}
	}
	if late == 0 {
		t.Fatalf("no stream of %d was first drawn long after it was forked", len(streams))
	}
}

// TestUndrawnForkIsSmall: a fork nothing draws from costs a few words, not
// math/rand's generator (about 5 KB).
func TestUndrawnForkIsSmall(t *testing.T) {
	const forks = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := NewRNG(1)
	kept := make([]*RNG, forks)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range kept {
		kept[i] = r.Fork("workload")
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / forks; per >= 256 {
		t.Errorf("an undrawn fork allocates %d bytes, want under 256", per)
	}
}
