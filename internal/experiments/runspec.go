package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"strings"

	"flowbender/internal/checkpoint"
	"flowbender/internal/topo"
	"flowbender/internal/workload"
)

// The run spec: which settings of a run are legal (Validate, CheckScale) and
// which identify it (Descriptor). flags.go binds the settings to a command
// line; the scales table is in options.go.

// flagError is the one shape every refused setting takes: the front-ends
// print it after their name, as "<tool>: -flag value: reason".
func flagError(name string, value any, format string, args ...any) error {
	return fmt.Errorf("-%s %v: %s", name, value, fmt.Sprintf(format, args...))
}

// Validate reports the first setting no run accepts, in the flagError shape
// (settings are named by the flag that sets them). Zero values mean "the
// default" throughout, so only negative, non-finite and unknown values are
// refused, as is a scheme or fault scenario named twice; a Load above 1 is a
// legal overload.
func (o Options) Validate() error {
	if o.Scale < 0 || int(o.Scale) >= len(scales) {
		return flagError("scale", int(o.Scale), "unknown scale")
	}
	for _, c := range []struct {
		flag string
		v    int
	}{
		{"flows", o.FlowCount}, {"jobs", o.JobCount}, {"seeds", o.Seeds},
		{"parallel", o.Parallelism}, {"shards", o.Shards}, {"solver-shards", o.SolverShards},
	} {
		if c.v < 0 {
			return flagError(c.flag, c.v, "must not be negative")
		}
	}
	if o.Watchdog < 0 {
		return flagError("watchdog", o.Watchdog, "must not be negative")
	}
	if math.IsNaN(o.Load) || math.IsInf(o.Load, 0) || o.Load < 0 {
		return flagError("load", o.Load, "must be a finite fraction of bisection bandwidth, zero or above")
	}
	if o.Workload != "" {
		if _, err := workload.NamedCDF(o.Workload); err != nil {
			return flagError("workload", o.Workload, "unknown workload (want %s)", strings.Join(workload.WorkloadNames(), " or "))
		}
	}
	for i, s := range o.MixSchemes {
		if slices.Contains(o.MixSchemes[:i], s) {
			return flagError("schemes", s, "repeated scheme")
		}
	}
	known := FaultScenarioNames()
	for i, name := range o.FaultScenarios {
		if !slices.Contains(known, name) {
			return flagError("faults", name, "unknown fault scenario (want %s; see fbsim -list-faults)", strings.Join(known, ", "))
		}
		if slices.Contains(o.FaultScenarios[:i], name) {
			return flagError("faults", name, "repeated fault scenario")
		}
	}
	return nil
}

// PacketParams returns the fat-tree a packet-level fabric of this scale is
// built from, or — for a fluid-only scale, which who (an experiment, a tool)
// cannot build — the refusal.
func (s ScaleLevel) PacketParams(who string) (topo.Params, error) {
	if scales[s].fluidOnly {
		return topo.Params{}, flagError("scale", s, "%s builds a packet-level fabric, which supports scales %s",
			who, strings.Join(scaleNames(false), ", "))
	}
	return scales[s].params, nil
}

// CheckScale reports whether the experiment can run at o.Scale: it can
// unless it would build a packet-level fabric at a fluid-only scale, and
// only an experiment with a fluid path under EngineFluid builds none.
func (e RegistryEntry) CheckScale(o Options) error {
	if e.Fluid && o.Engine == EngineFluid {
		return nil
	}
	who := e.Name + " has no fluid-engine path and"
	if e.Fluid {
		who = e.Name + " without -engine fluid"
	}
	_, err := o.Scale.PacketParams(who)
	return err
}

// identityFields are the Options fields that determine a run's output.
// Descriptor pins every one of them, so a checkpoint resumes only under the
// values that wrote it. notIdentityFields are the rest: the determinism
// contract makes output independent of how the work is spread (Parallelism,
// Shards, SolverShards) or watched (Watchdog, Log, Perf), and Ckpt is the
// checkpoint itself, so a run may be resumed with any of them changed. Every exported
// field is in exactly one list (TestOptionsFieldsClassified).
var (
	identityFields = []string{"Seed", "Scale", "Engine", "FlowCount", "JobCount", "Repeats",
		"Seeds", "CDF", "FaultScenarios", "Workload", "Load", "MixSchemes"}
	notIdentityFields = []string{"Parallelism", "Shards", "SolverShards", "Watchdog", "Log", "Perf", "Ckpt"}
)

// Descriptor returns the checkpoint identity of a run of o by the named tool
// ("fbsim:all", "fbsim:alltoall"). Fields the Descriptor has no slot for go
// into Extra as key=value words, present only when set, so a default run's
// descriptor is the one older files carry. A custom CDF is identified by
// what it holds, not by the path it was read from.
func (o Options) Descriptor(tool string) checkpoint.Descriptor {
	var extra []string
	add := func(key string, set bool, v any) {
		if set {
			extra = append(extra, fmt.Sprintf("%s=%v", key, v))
		}
	}
	add("engine", o.Engine != EnginePacket, o.Engine)
	add("faults", len(o.FaultScenarios) > 0, strings.Join(o.FaultScenarios, ","))
	// %v prints every point's float64 in its shortest round-trip form.
	add("cdf", o.CDF != nil, fmt.Sprintf("sha256:%.8x", sha256.Sum256([]byte(fmt.Sprint(o.CDF)))))
	add("workload", o.Workload != "", o.Workload)
	add("load", o.Load != 0, o.Load)
	add("schemes", len(o.MixSchemes) > 0, strings.ReplaceAll(fmt.Sprint(o.MixSchemes), " ", ","))
	add("repeats", o.Repeats != 0, o.Repeats)
	return checkpoint.Descriptor{
		Tool:      tool,
		Seed:      o.Seed,
		Scale:     o.Scale.String(),
		FlowCount: o.FlowCount,
		JobCount:  o.JobCount,
		Seeds:     o.Seeds,
		Extra:     strings.Join(extra, " "),
	}
}
