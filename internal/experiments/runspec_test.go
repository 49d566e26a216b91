package experiments

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"flowbender/internal/checkpoint"
	"flowbender/internal/workload"
)

// TestOptionsFieldsClassified: every exported Options field is in exactly one
// of identityFields and notIdentityFields, and the lists name nothing else —
// a new field fails here until someone decides whether it identifies a run.
func TestOptionsFieldsClassified(t *testing.T) {
	listed := map[string]int{}
	for _, name := range append(slices.Clone(identityFields), notIdentityFields...) {
		listed[name]++
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		if listed[f.Name] != 1 {
			t.Errorf("Options.%s is in %d of the identity/not-identity lists, want exactly 1", f.Name, listed[f.Name])
		}
		delete(listed, f.Name)
	}
	for name := range listed {
		t.Errorf("%q is classified but is not an exported Options field", name)
	}
}

// mutate changes v to a value it did not hold, whatever its kind.
func mutate(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Interface:
		v.Set(reflect.ValueOf(io.Discard))
	default:
		t.Fatalf("mutate: no rule for kind %v", v.Kind())
	}
}

// TestDescriptorPinsIdentityOnly: changing any identity field changes the
// Descriptor, and changing any not-identity field does not — from the zero
// Options and from one with every identity field already set.
func TestDescriptorPinsIdentityOnly(t *testing.T) {
	set := Options{Seed: 3, Scale: ScalePaper, Engine: EngineFluid, FlowCount: 40, JobCount: 5,
		Repeats: 2, Shards: 2, Seeds: 3, CDF: workload.Fixed(1000),
		FaultScenarios: []string{"cut"}, Workload: "datamining", Load: 0.3,
		MixSchemes: []Scheme{ECMP, RPS}}
	for _, base := range []Options{{}, set} {
		want := base.Descriptor("tool")
		for _, name := range identityFields {
			o := base
			mutate(t, reflect.ValueOf(&o).Elem().FieldByName(name))
			if o.Descriptor("tool") == want {
				t.Errorf("changing identity field %s left the descriptor at %+v", name, want)
			}
		}
		for _, name := range notIdentityFields {
			o := base
			mutate(t, reflect.ValueOf(&o).Elem().FieldByName(name))
			if got := o.Descriptor("tool"); got != want {
				t.Errorf("changing %s moved the descriptor: %+v, want %+v", name, got, want)
			}
		}
		if base.Descriptor("other") == want {
			t.Error("the tool name is not part of the descriptor")
		}
	}
}

// TestDescriptorCDFByContent: a custom CDF is identified by its points, so
// the same distribution read from two paths resumes and an edited file under
// the same path does not; a default run's descriptor carries no extras.
func TestDescriptorCDFByContent(t *testing.T) {
	a := Options{CDF: workload.CDF{{Bytes: 1000, P: 0.5}, {Bytes: 2000, P: 1}}}
	b := Options{CDF: workload.CDF{{Bytes: 1000, P: 0.5}, {Bytes: 2000, P: 1}}}
	c := Options{CDF: workload.CDF{{Bytes: 1000, P: 0.5000000000000001}, {Bytes: 2000, P: 1}}}
	if a.Descriptor("t") != b.Descriptor("t") {
		t.Error("equal CDFs give different descriptors")
	}
	if a.Descriptor("t") == c.Descriptor("t") {
		t.Error("a one-ulp change to a CDF point is not in the descriptor")
	}
	if extra := a.Descriptor("t").Extra; !strings.HasPrefix(extra, "cdf=sha256:") || len(extra) != len("cdf=sha256:")+16 {
		t.Errorf("extra = %q, want cdf=sha256:<16 hex digits>", extra)
	}
	want := checkpoint.Descriptor{Tool: "fbsim:all", Seed: 1, Scale: "small"}
	if got := DefaultOptions().Descriptor("fbsim:all"); got != want {
		t.Errorf("default descriptor = %+v, want %+v", got, want)
	}
}

// TestCheckpointRefusedWhenIdentityChanges: a checkpoint opens again under
// the options that wrote it, with any not-identity setting changed, and is
// refused with both descriptors shown once an identity setting differs.
func TestCheckpointRefusedWhenIdentityChanges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	o := Options{Seed: 2, Scale: ScaleTiny, FlowCount: 30, Load: 0.4, MixSchemes: []Scheme{ECMP},
		CDF: workload.Fixed(5000)}
	if _, err := checkpoint.FromFlags(path, "", o.Descriptor("fbsim:production")); err != nil {
		t.Fatal(err)
	}
	same := o
	same.Parallelism, same.Shards, same.SolverShards, same.Watchdog, same.Log = 4, 2, 2, time.Minute, io.Discard
	if _, err := checkpoint.FromFlags("", path, same.Descriptor("fbsim:production")); err != nil {
		t.Fatalf("resume under the same identity refused: %v", err)
	}
	for name, change := range map[string]func(*Options){
		"engine":  func(o *Options) { o.Engine = EngineFluid },
		"flows":   func(o *Options) { o.FlowCount = 31 },
		"load":    func(o *Options) { o.Load = 0.5 },
		"schemes": func(o *Options) { o.MixSchemes = []Scheme{ECMP, FlowBender} },
		"cdf":     func(o *Options) { o.CDF = workload.Fixed(5001) },
	} {
		changed := o
		change(&changed)
		_, err := checkpoint.FromFlags("", path, changed.Descriptor("fbsim:production"))
		if err == nil || !strings.Contains(err.Error(), "checkpoint:") || !strings.Contains(err.Error(), "this run:") {
			t.Errorf("resume with a different %s: err = %v, want the descriptor diff", name, err)
		}
	}
}

// resolve drives the shared binder as a front-end does.
func resolve(t *testing.T, args ...string) (*RunFlags, Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	rf := BindRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	o, err := rf.Options()
	return rf, o, err
}

// TestRunFlagsResolve: every run-shaping flag, given a good value, lands in
// the Options field it sets and nowhere else.
func TestRunFlagsResolve(t *testing.T) {
	cdfPath := filepath.Join(t.TempDir(), "mice.cdf")
	if err := os.WriteFile(cdfPath, []byte("300 0\n600 0.5 # half\n1200 1.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	def := DefaultOptions()
	with := func(set func(*Options)) Options {
		o := def
		set(&o)
		return o
	}
	for _, tc := range []struct {
		args string
		want Options
	}{
		{"", def},
		{"-seed 7", with(func(o *Options) { o.Seed = 7 })},
		{"-scale tiny", with(func(o *Options) { o.Scale = ScaleTiny })},
		{"-scale mega -engine fluid", with(func(o *Options) { o.Scale, o.Engine = ScaleMega, EngineFluid })},
		{"-engine packet", def},
		{"-flows 9", with(func(o *Options) { o.FlowCount = 9 })},
		{"-jobs 3", with(func(o *Options) { o.JobCount = 3 })},
		{"-parallel 2", with(func(o *Options) { o.Parallelism = 2 })},
		{"-solver-shards 2", with(func(o *Options) { o.SolverShards = 2 })},
		{"-seeds 3", with(func(o *Options) { o.Seeds = 3 })},
		{"-cdf " + cdfPath, with(func(o *Options) {
			o.CDF = workload.CDF{{Bytes: 300, P: 0}, {Bytes: 600, P: 0.5}, {Bytes: 1200, P: 1}}
		})},
		{"-workload datamining", with(func(o *Options) { o.Workload = "datamining" })},
		{"-load 1.5", with(func(o *Options) { o.Load = 1.5 })}, // overload is legal
		{"-schemes ecmp,,FlowBender", with(func(o *Options) { o.MixSchemes = []Scheme{ECMP, FlowBender} })},
		{"-faults cut,gray1", with(func(o *Options) { o.FaultScenarios = []string{"cut", "gray1"} })},
		{"-watchdog 2s", with(func(o *Options) { o.Watchdog = 2 * time.Second })},
		{"-v", with(func(o *Options) { o.Log = os.Stderr })},
		// These four shape the process, not the Options.
		{"-checkpoint a.ckpt", def},
		{"-resume a.ckpt", def},
		{"-cpuprofile cpu.pprof -memprofile mem.pprof", def},
	} {
		rf, got, err := resolve(t, strings.Fields(tc.args)...)
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q resolved to\n%+v, want\n%+v", tc.args, got, tc.want)
		}
		if want := strings.Contains(tc.args, "-checkpoint ") || strings.Contains(tc.args, "-resume "); rf.Checkpointing() != want {
			t.Errorf("%q: Checkpointing() = %v, want %v", tc.args, rf.Checkpointing(), want)
		}
	}
}

// TestRunFlagsRefuse: each setting no run accepts is refused with the one
// line the front-ends print — "-flag value: reason" — instead of running as
// the default (or, for -faults, as a table of FAILED rows).
func TestRunFlagsRefuse(t *testing.T) {
	badCDF := filepath.Join(t.TempDir(), "bad.cdf")
	if err := os.WriteFile(badCDF, []byte("300 0\n200 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ args, want string }{
		{"-flows -5", "-flows -5: must not be negative"},
		{"-jobs -1", "-jobs -1: must not be negative"},
		{"-seeds -2", "-seeds -2: must not be negative"},
		{"-parallel -3", "-parallel -3: must not be negative"},
		{"-solver-shards -4", "-solver-shards -4: must not be negative"},
		{"-watchdog -1s", "-watchdog -1s: must not be negative"},
		{"-load NaN", "-load NaN: must be a finite"},
		{"-load -1", "-load -1: must be a finite"},
		{"-load +Inf", "-load +Inf: must be a finite"},
		{"-workload nope", "-workload nope: unknown workload (want websearch or datamining)"},
		{"-faults cut,nosuch", "-faults nosuch: unknown fault scenario (want cut, "},
		{"-schemes ECMP,warp", "-schemes warp: unknown scheme"},
		{"-schemes ECMP,ECMP", "-schemes ECMP: repeated scheme"},
		{"-schemes FlowBender,ECMP,flowbender", "-schemes FlowBender: repeated scheme"},
		{"-faults cut,cut", "-faults cut: repeated fault scenario"},
		{"-scale huge", "-scale huge: unknown scale (want tiny, small, paper, hyper, mega)"},
		{"-engine warp", "-engine warp: unknown engine"},
		{"-cdf /no/such/file", "-cdf /no/such/file: open /no/such/file"},
		{"-cdf " + badCDF, "-cdf " + badCDF + ": "},
	} {
		_, _, err := resolve(t, strings.Fields(tc.args)...)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%q: err = %v, want one line starting %q", tc.args, err, tc.want)
		}
	}
	if err := (Options{Scale: ScaleMega + 1}).Validate(); err == nil {
		t.Error("an out-of-range Scale validates")
	}
}

// TestCheckScale: a packet-level fabric at a fluid-only scale is refused by
// name — for an experiment without a fluid path whatever the engine, for one
// with a fluid path unless the engine is fluid — and the packet scales pass.
func TestCheckScale(t *testing.T) {
	for _, e := range Registry {
		for _, scale := range []ScaleLevel{ScaleTiny, ScaleSmall, ScalePaper, ScaleHyper, ScaleMega} {
			for _, engine := range []EngineKind{EnginePacket, EngineFluid} {
				err := e.CheckScale(Options{Scale: scale, Engine: engine})
				wantOK := scale <= ScalePaper || (e.Fluid && engine == EngineFluid)
				if (err == nil) != wantOK {
					t.Errorf("%s at %s/%s: err = %v, want ok = %v", e.Name, scale, engine, err, wantOK)
				}
				if err != nil && !(strings.HasPrefix(err.Error(), "-scale "+scale.String()+": "+e.Name+" ") &&
					strings.HasSuffix(err.Error(), "supports scales tiny, small, paper")) {
					t.Errorf("%s at %s/%s: refusal %q does not name the experiment and the scales it supports", e.Name, scale, engine, err)
				}
			}
		}
	}
	if got := fluidExperiments(); !slices.Equal(got, []string{"table1", "alltoall", "sens-n", "sens-t", "production", "fidelity"}) {
		t.Errorf("experiments with a fluid path = %v", got)
	}
	if _, err := ScaleHyper.PacketParams("fbtopo"); err == nil {
		t.Error("PacketParams built a packet fabric at hyper")
	}
	if p, err := ScalePaper.PacketParams("fbtopo"); err != nil || p.NumHosts() != 128 {
		t.Errorf("PacketParams(paper) = %d hosts, %v", p.NumHosts(), err)
	}
}
