package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"flowbender/internal/core"
	"flowbender/internal/fluid"
	"flowbender/internal/runpool"
	"flowbender/internal/sim"
)

// onPool turns an experiment's point function into the task the named runpool
// maps run: every point gets its own Options copy, labelled (pointKey keys its
// checkpoint watermarks; runpool attaches the same label to a failure) and
// told the pool whose slot it runs under — a sharded point borrows its extra
// workers' tokens there, and every point draws its engine arena from it.
func onPool[P, Out any](o Options, pl *runpool.Pool, name func(P) string, fn func(Options, P) Out) func(P) Out {
	return func(pt P) Out {
		oo := o
		oo.execPool = pl
		oo.pointKey = name(pt)
		return fn(oo, pt)
	}
}

// fanOut runs an experiment's independent simulation points on its worker
// pool and returns the outcomes in point order, whatever the parallelism.
func fanOut[P, Out any](o Options, points []P, name func(P) string, fn func(Options, P) Out) []Out {
	pl := o.pool()
	return runpool.MapNamed(pl, points, name, onPool(o, pl, name, fn))
}

// sweepPoint is a point of a scheme sweep: model names its scheme and, as one
// comparable value, every other coordinate that distinguishes it within the
// sweep (load or flow count, replicate seed).
type sweepPoint interface {
	model() (Scheme, any)
}

// sweep is fanOut for a scheme sweep that may run on the fluid engine (the
// all-to-all figures, Table 1): points whose fluid models are identical are
// simulated once.
//
// On the fluid engine several schemes resolve to the same fluid.Config — the
// model has no packet gaps for Flowlet and FlowDyn to switch on, no PFC for
// DeTail — and two points that agree on the config and on every other
// coordinate are the same computation bit for bit. sweep simulates the first
// point of each such group and gives its outcome to the rest; the simulated
// point keeps its own label, seed and checkpoint key, outcomes still come
// back in point order, and a packet-engine sweep shares nothing. Equivalence
// is read off fluidConfig, the one place a scheme is mapped onto the fluid
// model, so a scheme that gains a model of its own stops sharing there.
func sweep[P sweepPoint, Out any](o Options, exp string, points []P, name func(P) string, fn func(Options, P) Out) []Out {
	scheme := func(i int) Scheme { s, _ := points[i].model(); return s }
	lead := fluidLeaders(o, points)
	var simulated []P
	slot := make([]int, len(points))      // point -> index into simulated
	stoodFor := make(map[string][]Scheme) // simulated point's label -> schemes sharing its outcome
	for i, l := range lead {
		if l == i {
			slot[i] = len(simulated)
			simulated = append(simulated, points[i])
			continue
		}
		slot[i] = slot[l]
		label := name(points[l])
		stoodFor[label] = append(stoodFor[label], scheme(i))
	}
	if len(stoodFor) > 0 {
		o.logf("%s: %d of %d points simulated; %s", exp, len(simulated), len(points), describeSharing(lead, scheme))
		// A failure of a simulated point is the failure of every point it
		// stood for: say so in the report.
		defer func() {
			if r := recover(); r != nil {
				panic(annotateShared(r, stoodFor))
			}
		}()
	}
	outs := fanOut(o, simulated, name, fn)
	all := make([]Out, len(points))
	for i := range all {
		all[i] = outs[slot[i]]
	}
	return all
}

// fluidLeaders maps each of a sweep's points to the point that simulates it:
// itself, or the first earlier point with the identical fluid model and
// coordinates. Only a fluid-engine sweep shares, and a config carrying a
// FlowBender controller never does — the controller is per-point state with
// an RNG stream of its own.
func fluidLeaders[P sweepPoint](o Options, points []P) []int {
	lead := make([]int, len(points))
	for i := range lead {
		lead[i] = i
	}
	if o.Engine != EngineFluid {
		return lead
	}
	type model struct {
		cfg   fluid.Config
		coord any
	}
	first := make(map[model]int)
	p := o.params()
	for i := range lead {
		s, coord := points[i].model()
		cfg := fluidConfig(p, s, core.Config{}, false, sim.NewRNG(0))
		if cfg.FlowBender != nil {
			continue
		}
		m := model{cfg, coord}
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
		names := make([]string, len(by))
		for i, s := range by {
			names[i] = s.String()
		}
		verb := "shares"
		if len(names) > 1 {
			verb = "share"
		}
		clause := fmt.Sprintf("%s %s %s's", strings.Join(names, ", "), verb, m)
		if len(clauses) == 0 {
			clause += " fluid model"
		}
		clauses = append(clauses, clause)
	}
	return strings.Join(clauses, ", ")
}

// sharedPointError is a simulated point's failure, reported on behalf of the
// points that shared its outcome as well.
type sharedPointError struct {
	err  error
	also []Scheme
}

func (e *sharedPointError) Error() string {
	names := make([]string, len(e.also))
	for i, s := range e.also {
		names[i] = s.String()
	}
	return fmt.Sprintf("%v (the point also stood for %s, sharing its fluid model)", e.err, strings.Join(names, ", "))
}

func (e *sharedPointError) Unwrap() error { return e.err }

// annotateShared wraps a recovered pool failure whose point stood for others.
func annotateShared(r any, stoodFor map[string][]Scheme) any {
	err, ok := r.(error)
	if !ok {
		return r
	}
	point := ""
	var pe *runpool.PanicError
	var we *runpool.WatchdogError
	switch {
	case errors.As(err, &pe):
		point = pe.Point
	case errors.As(err, &we):
		point = we.Point
	}
	if also := stoodFor[point]; len(also) > 0 {
		return &sharedPointError{err: err, also: also}
	}
	return r
}
