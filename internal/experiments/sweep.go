package experiments

import (
	"fmt"
	"slices"
	"strings"

	"flowbender/internal/runpool"
)

// pointTask is one run of an experiment's point: the point, the replicate
// seed it runs at, and its label.
type pointTask[P any] struct {
	pt    P
	seed  int64
	label string
}

// pointTasks expands points into their runs, in point order and, within a
// point, by replicate: run rep of point i is task i*reps+rep. A run's label
// is "<exp>/<label(pt)>/seed=<seed>", the name a FAILED line carries.
func pointTasks[P any](o Options, exp string, reps int, points []P, label func(P) string) []pointTask[P] {
	tasks := make([]pointTask[P], 0, len(points)*reps)
	for _, pt := range points {
		for rep := 0; rep < reps; rep++ {
			t := pointTask[P]{pt: pt, seed: o.seedAt(rep)}
			t.label = fmt.Sprintf("%s/%s/seed=%d", exp, label(pt), t.seed)
			tasks = append(tasks, t)
		}
	}
	return tasks
}

// runPoints is the one way an experiment runs its simulation points: every
// point reps times, at seedAt(0..reps-1), on the experiment's worker pool.
// Each run gets its own Options copy with its seed and the pool whose slot
// it runs under, from which it draws its engine arena.
// The outcomes come back in task order (see pointTasks) whatever the
// parallelism; a run that panicked or tripped the watchdog carries its
// labelled error in its slot, and every other run still completes.
//
// On the fluid engine, runs of points that implement sweepPoint (the
// all-to-all figures, Table 1) and whose fluid models are identical are
// simulated once. Several schemes run the same fluid model — it has no
// packet gaps for Flowlet and FlowDyn to switch on, no PFC for DeTail — and
// two runs that agree on the model, on every other coordinate and on the
// seed are the same computation bit for bit. The first run of
// each such group is simulated under its own label and its outcome handed to
// the rest; its failure is every one of theirs, wrapped in a
// sharedPointError that names them. Equivalence is read off the schemes
// table's fluid column, so a scheme that gains a model of its own stops
// sharing there.
func runPoints[P, Out any](o Options, exp string, reps int, points []P, label func(P) string, run func(Options, P) Out) []runpool.TaskResult[Out] {
	tasks := pointTasks(o, exp, reps, points, label)
	lead := fluidLeaders(o, tasks)
	var simulated []pointTask[P]
	slot := make([]int, len(tasks)) // task -> index into simulated
	var stoodFor [][]Scheme         // simulated -> schemes sharing its outcome
	for i, l := range lead {
		if l == i {
			slot[i] = len(simulated)
			simulated = append(simulated, tasks[i])
			stoodFor = append(stoodFor, nil)
			continue
		}
		slot[i] = slot[l]
		stoodFor[slot[l]] = append(stoodFor[slot[l]], taskScheme(tasks[i]))
	}
	if len(simulated) < len(tasks) {
		o.logf("%s: %d of %d points simulated; %s", exp, len(simulated), len(tasks),
			describeSharing(lead, func(i int) Scheme { return taskScheme(tasks[i]) }))
	}

	pl := o.pool()
	outs := runpool.MapResultsNamed(pl, simulated, func(t pointTask[P]) string { return t.label }, func(t pointTask[P]) Out {
		if o.debugPointLabel != nil {
			o.debugPointLabel(t.label)
		}
		oo := o
		oo.Seed, oo.execPool = t.seed, pl
		return run(oo, t.pt)
	})
	all := make([]runpool.TaskResult[Out], len(tasks))
	for i := range all {
		all[i] = outs[slot[i]]
		if also := stoodFor[slot[i]]; all[i].Err != nil && len(also) > 0 {
			all[i].Err = &sharedPointError{err: all[i].Err, also: also}
		}
	}
	return all
}

// must returns the outcomes of an experiment that fails as a whole: their
// values in order, or — once every run has finished, since the runs write the
// caller's checkpoint and hold its arenas — a panic with the first failure in
// order, the labelled error itself, so the FAILED report identifies the run.
func must[Out any](res []runpool.TaskResult[Out]) []Out {
	out := make([]Out, len(res))
	for i, r := range res {
		if r.Err != nil {
			panic(r.Err)
		}
		out[i] = r.Val
	}
	return out
}

// sweepPoint is a point of a scheme sweep that may run on the fluid engine:
// model names its scheme and, as one comparable value, every other
// coordinate that distinguishes it within the sweep (load, flow count).
type sweepPoint interface {
	model() (Scheme, any)
}

// taskScheme is the scheme a sweep task runs.
func taskScheme[P any](t pointTask[P]) Scheme {
	s, _ := any(t.pt).(sweepPoint).model()
	return s
}

// fluidLeaders maps each task to the task that simulates it: itself, or the
// first earlier task that runs the same fluid model (the schemes table's
// fluid column) at the same coordinates and seed. Only sweep points on the
// fluid engine share, and FlowBender's model never does — its controller is
// per-point state with an RNG stream of its own.
func fluidLeaders[P any](o Options, tasks []pointTask[P]) []int {
	lead := make([]int, len(tasks))
	for i := range lead {
		lead[i] = i
	}
	if o.Engine != EngineFluid {
		return lead
	}
	type model struct {
		fluid Scheme
		coord any
		seed  int64
	}
	first := make(map[model]int)
	for i, t := range tasks {
		sp, ok := any(t.pt).(sweepPoint)
		if !ok {
			return lead
		}
		s, coord := sp.model()
		m := model{schemes[s].fluid, coord, t.seed}
		if m.fluid == FlowBender {
			continue
		}
		if j, ok := first[m]; ok {
			lead[i] = j
		} else {
			first[m] = i
		}
	}
	return lead
}

// describeSharing renders a sweep's grouping by scheme, in sweep order:
// "Flowlet, FlowDyn share ECMP's fluid model, DeTail shares RPS's".
func describeSharing(lead []int, scheme func(i int) Scheme) string {
	var models []Scheme                  // simulated schemes
	sharing := make(map[Scheme][]Scheme) // simulated scheme -> schemes sharing its model
	for i, l := range lead {
		m, s := scheme(l), scheme(i)
		if _, seen := sharing[m]; !seen {
			sharing[m] = nil
			models = append(models, m)
		}
		if l != i && !slices.Contains(sharing[m], s) {
			sharing[m] = append(sharing[m], s)
		}
	}
	var clauses []string
	for _, m := range models {
		by := sharing[m]
		if len(by) == 0 {
			continue
		}
		verb := "shares"
		if len(by) > 1 {
			verb = "share"
		}
		clause := fmt.Sprintf("%s %s %s's", schemeList(by, ", "), verb, m)
		if len(clauses) == 0 {
			clause += " fluid model"
		}
		clauses = append(clauses, clause)
	}
	return strings.Join(clauses, ", ")
}

// sharedPointError is a simulated run's failure, reported on behalf of the
// runs that shared its outcome as well.
type sharedPointError struct {
	err  error
	also []Scheme
}

func (e *sharedPointError) Error() string {
	return fmt.Sprintf("%v (the point also stood for %s, sharing its fluid model)", e.err, schemeList(e.also, ", "))
}

func (e *sharedPointError) Unwrap() error { return e.err }
