package experiments

import (
	"strings"
	"testing"

	"flowbender/internal/core"
	"flowbender/internal/sim"
)

func TestScaleParams(t *testing.T) {
	cases := map[ScaleLevel]int{
		ScaleTiny:  16,
		ScaleSmall: 64,
		ScalePaper: 128,
		ScaleHyper: 10240,
		ScaleMega:  102400,
	}
	for scale, hosts := range cases {
		o := Options{Scale: scale}
		if got := o.params().NumHosts(); got != hosts {
			t.Errorf("%v: hosts = %d, want %d", scale, got, hosts)
		}
	}
}

func TestScaleStrings(t *testing.T) {
	for s := ScaleTiny; s <= ScaleMega; s++ {
		if strings.Contains(s.String(), "?") {
			t.Errorf("scale %d has no name", int(s))
		}
		if got, ok := ScaleByName(s.String()); !ok || got != s {
			t.Errorf("ScaleByName(%q) = %v, %v", s.String(), got, ok)
		}
	}
	if _, ok := ScaleByName((ScaleMega + 1).String()); ok {
		t.Error("ScaleByName accepts the name of an out-of-range scale")
	}
}

func TestFlowCountOverride(t *testing.T) {
	o := Options{Scale: ScaleSmall}
	if o.flowCount() != 1500 {
		t.Errorf("default small flow count = %d", o.flowCount())
	}
	o.FlowCount = 7
	if o.flowCount() != 7 {
		t.Error("override ignored")
	}
	// A fluid-only scale has no job default of its own and takes small's.
	if got := (Options{Scale: ScaleMega}).jobCount(); got != 150 {
		t.Errorf("default mega job count = %d", got)
	}
	if got := (Options{Scale: ScaleMega, JobCount: 7}).jobCount(); got != 7 {
		t.Errorf("job override ignored: %d", got)
	}
}

func TestRepeats(t *testing.T) {
	if (Options{Scale: ScaleSmall}).repeats() != 3 {
		t.Error("small scale should repeat 3x")
	}
	if (Options{Scale: ScalePaper}).repeats() != 1 {
		t.Error("paper scale should repeat 1x")
	}
	if (Options{Scale: ScaleSmall, Repeats: 5}).repeats() != 5 {
		t.Error("explicit repeats ignored")
	}
}

// DefaultOptions is what the CLIs run when no flag is given;
// TestRunFlagsResolve holds the flag binder's defaults to it.
func DefaultOptions() Options {
	return Options{Seed: 1, Scale: ScaleSmall}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Scale != ScaleSmall || o.Seed != 1 {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

func TestStabilityGapApplied(t *testing.T) {
	setup := FlowBender.setup(newTestRNG(), zeroFB())
	if setup.cfg.FlowBender == nil {
		t.Fatal("FlowBender config missing")
	}
	if setup.cfg.FlowBender.MinEpochGap != StabilityGap {
		t.Errorf("gap = %d, want %d", setup.cfg.FlowBender.MinEpochGap, StabilityGap)
	}
	if !setup.cfg.FlowBender.DesyncN {
		t.Error("desync not applied by default")
	}
}

func TestSchemeSetups(t *testing.T) {
	ecmp := ECMP.setup(newTestRNG(), zeroFB())
	if ecmp.cfg.FlowBender != nil || ecmp.pfc != nil {
		t.Error("ECMP setup carries extras")
	}
	detail := DeTail.setup(newTestRNG(), zeroFB())
	if detail.pfc == nil || !detail.cfg.DisableFastRetx {
		t.Error("DeTail setup missing PFC or fast-retx disable")
	}
	if detail.pfc.Pause != 20_000 || detail.pfc.Unpause != 10_000 {
		t.Errorf("DeTail PFC thresholds wrong: %+v", detail.pfc)
	}
	rps := RPS.setup(newTestRNG(), zeroFB())
	if rps.sel == nil || rps.pfc != nil {
		t.Error("RPS setup wrong")
	}
}

func newTestRNG() *sim.RNG { return sim.NewRNG(1) }

func zeroFB() core.Config { return core.Config{} }
