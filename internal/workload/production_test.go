package workload

import (
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"flowbender/internal/netsim"
	"flowbender/internal/sim"
)

// fakeHosts builds n distinct Host pointers; Mix only compares and stores
// them, so empty structs suffice.
func fakeHosts(n int) []*netsim.Host {
	hs := make([]*netsim.Host, n)
	for i := range hs {
		hs[i] = &netsim.Host{}
	}
	return hs
}

// TestNamedCDFMatchesTestdata pins the built-in distributions to the
// checked-in .cdf files bit for bit: external tools reading the files see
// exactly what the simulator draws from.
func TestNamedCDFMatchesTestdata(t *testing.T) {
	for _, name := range WorkloadNames() {
		f, err := os.Open("testdata/" + name + ".cdf")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		parsed, err := ParseCDF(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		builtin, err := NamedCDF(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(parsed, builtin) {
			t.Errorf("%s: testdata file and builtin diverge:\nfile:    %v\nbuiltin: %v",
				name, parsed, builtin)
		}
		if err := builtin.Validate(); err != nil {
			t.Errorf("%s: builtin invalid: %v", name, err)
		}
	}
	if _, err := NamedCDF("nosuch"); err == nil {
		t.Error("NamedCDF accepted an unknown name")
	}
}

// TestPoissonKS: the inter-arrival gaps must actually be exponential with
// the requested mean — a Kolmogorov–Smirnov sanity check per seed against
// the exponential CDF, with a threshold loose enough (~p < 1e-4) that a
// correct generator never trips it on these fixed seeds.
func TestPoissonKS(t *testing.T) {
	const n = 20000
	mean := 50 * sim.Microsecond
	for _, seed := range []int64{1, 7, 42, 1337} {
		rng := sim.NewRNG(seed)
		p := Poisson{Mean: mean}
		us := make([]float64, n)
		var sum float64
		for i := range us {
			gap := p.Next(rng, 0)
			sum += float64(gap)
			// Probability integral transform: exponential gaps map to
			// Uniform(0,1).
			us[i] = 1 - math.Exp(-float64(gap)/float64(mean))
		}
		sort.Float64s(us)
		var d float64
		for i, u := range us {
			lo := math.Abs(u - float64(i)/n)
			hi := math.Abs(u - float64(i+1)/n)
			d = math.Max(d, math.Max(lo, hi))
		}
		if limit := 2.2 / math.Sqrt(n); d > limit {
			t.Errorf("seed %d: KS statistic %.5f > %.5f — gaps not exponential", seed, d, limit)
		}
		got := sum / n
		if want := float64(mean); math.Abs(got-want)/want > 0.05 {
			t.Errorf("seed %d: mean gap %.0f, want %.0f ± 5%%", seed, got, want)
		}
	}
}

// TestDiurnalEnvelope: every gap must respect the analytic envelope
// gap ∈ [draw/MaxRate, draw/minDiurnalRate]; with the rate bounded, time
// still advances, and the spike window must visibly densify arrivals.
func TestDiurnalEnvelope(t *testing.T) {
	mean := 100 * sim.Microsecond
	period := 100 * sim.Millisecond
	d := Diurnal{
		Mean:      mean,
		Amplitude: 0.5,
		Period:    period,
		Spikes:    []Spike{{At: 20 * sim.Millisecond, Duration: 10 * sim.Millisecond, Factor: 4}},
	}
	// Replay the same seed through a bare Poisson to recover the raw
	// exponential draws the diurnal process scales.
	raw := sim.NewRNG(11)
	rng := sim.NewRNG(11)
	maxRate := d.MaxRate()
	if want := 1.5 * 4; maxRate != want {
		t.Fatalf("MaxRate=%v, want %v", maxRate, want)
	}
	var now sim.Time
	var inSpike, outSpike int
	for i := 0; i < 50000 && now < period; i++ {
		e := float64(raw.Exp(mean))
		gap := d.Next(rng, now)
		lo := sim.Time(e / maxRate)
		hi := sim.Time(e/minDiurnalRate) + 1
		if gap < lo || gap > hi {
			t.Fatalf("gap %v outside envelope [%v, %v] at t=%v", gap, lo, hi, now)
		}
		if gap < 1 {
			t.Fatalf("non-positive gap %v", gap)
		}
		now += gap
		if now >= 20*sim.Millisecond && now < 30*sim.Millisecond {
			inSpike++
		} else if now >= 40*sim.Millisecond && now < 50*sim.Millisecond {
			outSpike++
		}
	}
	// The 4x spike window should hold several times the arrivals of an
	// equally long plain window; 2x is a loose, non-flaky floor.
	if inSpike < 2*outSpike {
		t.Errorf("spike window %d arrivals vs %d outside — spike not visible", inSpike, outSpike)
	}
}

// TestDiurnalZeroAmplitudeIsPoissonShaped: with no modulation and no
// spikes, Rate must be exactly 1 so gaps equal the raw exponential draws.
func TestDiurnalZeroAmplitudeIsPoissonShaped(t *testing.T) {
	d := Diurnal{Mean: 10 * sim.Microsecond}
	raw := sim.NewRNG(3)
	rng := sim.NewRNG(3)
	for i := 0; i < 1000; i++ {
		want := raw.Exp(d.Mean)
		if want < 1 {
			want = 1
		}
		if got := d.Next(rng, sim.Time(i)*sim.Millisecond); got != want {
			t.Fatalf("draw %d: got %v want %v", i, got, want)
		}
	}
}

// TestDiurnalRateFloor: a trough deeper than the floor clamps instead of
// stalling or flipping the rate negative.
func TestDiurnalRateFloor(t *testing.T) {
	d := Diurnal{Mean: sim.Microsecond, Amplitude: 0.99, Period: 4 * sim.Second,
		Spikes: []Spike{{At: 0, Duration: 4 * sim.Second, Factor: 0.01}}}
	// Near the trough (3/4 period) with a 0.01x "spike", the raw rate
	// would be ~0.0001; the floor must hold.
	if r := d.Rate(3 * sim.Second); r != minDiurnalRate {
		t.Fatalf("Rate=%v, want floor %v", r, minDiurnalRate)
	}
}

func testMix(seed int64, hosts []*netsim.Host, maxFlows int) *Mix {
	return &Mix{
		RNG:         sim.NewRNG(seed),
		Hosts:       hosts,
		CDF:         WebSearchCDF(),
		Arrivals:    Poisson{Mean: 20 * sim.Microsecond},
		IncastFrac:  0.15,
		StorageFrac: 0.10,
		FanIn:       4,
		Replicas:    3,
		MaxFlows:    maxFlows,
	}
}

// PredrawFlows (test helper) consumes the generator exactly as repeated
// NextBatch calls would and returns the flattened schedule.
func (m *Mix) PredrawFlows() []FlowSpec {
	out := make([]FlowSpec, 0, m.MaxFlows-m.emitted)
	for {
		b := m.NextBatch()
		if b == nil {
			return out
		}
		out = append(out, b...)
	}
}

// TestMixPredrawDeterminism: the same seed must yield the identical spec
// sequence whether batches are consumed lazily one at a time or pre-drawn
// flat up front — the property the sharded runner depends on.
func TestMixPredrawDeterminism(t *testing.T) {
	hosts := fakeHosts(16)
	flat := testMix(99, hosts, 5000).PredrawFlows()
	if len(flat) != 5000 {
		t.Fatalf("predraw emitted %d specs, want 5000", len(flat))
	}

	lazy := testMix(99, hosts, 5000)
	var got []FlowSpec
	for {
		b := lazy.NextBatch()
		if b == nil {
			break
		}
		got = append(got, b...)
	}
	if !reflect.DeepEqual(flat, got) {
		t.Fatal("lazy NextBatch stream diverges from PredrawFlows")
	}

	// And byte-identical across independent generator instances.
	again := testMix(99, hosts, 5000).PredrawFlows()
	if !reflect.DeepEqual(flat, again) {
		t.Fatal("two same-seed predraws diverge")
	}
	if diff := testMix(100, hosts, 5000).PredrawFlows(); reflect.DeepEqual(flat, diff) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestMixTruncationStable: cutting MaxFlows mid-batch must not shift the
// draw stream — the shared prefix of a longer and shorter run is identical.
func TestMixTruncationStable(t *testing.T) {
	hosts := fakeHosts(16)
	long := testMix(5, hosts, 3000).PredrawFlows()
	for _, n := range []int{1, 7, 100, 2999} {
		short := testMix(5, hosts, n).PredrawFlows()
		if len(short) != n {
			t.Fatalf("MaxFlows=%d emitted %d", n, len(short))
		}
		if !reflect.DeepEqual(short, long[:n]) {
			t.Fatalf("MaxFlows=%d is not a prefix of the longer run", n)
		}
	}
}

// TestMixIncastShape: an incast batch is FanIn flows at one instant from
// distinct sources into a single destination, splitting one job evenly.
func TestMixIncastShape(t *testing.T) {
	hosts := fakeHosts(32)
	m := testMix(21, hosts, 20000)
	m.IncastFrac = 1 // all batches incast
	m.StorageFrac = 0
	var batches int
	for {
		b := m.NextBatch()
		if b == nil {
			break
		}
		batches++
		if len(b) > m.FanIn {
			t.Fatalf("incast batch has %d flows, want <= FanIn=%d", len(b), m.FanIn)
		}
		full := len(b) == m.FanIn // the last batch may be truncated
		srcs := map[*netsim.Host]bool{}
		for _, s := range b {
			if s.Kind != KindIncast {
				t.Fatalf("kind %v in incast-only mix", s.Kind)
			}
			if s.At != b[0].At {
				t.Fatal("incast flows not simultaneous")
			}
			if s.Dst != b[0].Dst {
				t.Fatal("incast flows have different aggregators")
			}
			if s.Src == s.Dst {
				t.Fatal("worker equals aggregator")
			}
			if srcs[s.Src] {
				t.Fatal("duplicate worker")
			}
			srcs[s.Src] = true
			if s.Size != b[0].Size {
				t.Fatal("uneven job split")
			}
			if s.Size < 1 {
				t.Fatal("non-positive flow size")
			}
		}
		_ = full
	}
	if m.emitted != 20000 {
		t.Fatalf("emitted %d, want 20000", m.emitted)
	}
	if batches < 20000/m.FanIn {
		t.Fatalf("only %d batches", batches)
	}
}

// TestMixStorageShape: a storage batch replicates one full-size payload
// from one writer to Replicas distinct servers at one instant.
func TestMixStorageShape(t *testing.T) {
	hosts := fakeHosts(32)
	m := testMix(22, hosts, 9999)
	m.IncastFrac = 0
	m.StorageFrac = 1
	for {
		b := m.NextBatch()
		if b == nil {
			break
		}
		if len(b) > m.Replicas {
			t.Fatalf("storage batch has %d flows, want <= Replicas=%d", len(b), m.Replicas)
		}
		dsts := map[*netsim.Host]bool{}
		for _, s := range b {
			if s.Kind != KindStorage {
				t.Fatalf("kind %v in storage-only mix", s.Kind)
			}
			if s.Src != b[0].Src || s.At != b[0].At || s.Size != b[0].Size {
				t.Fatal("replicas differ in writer, instant, or size")
			}
			if dsts[s.Dst] {
				t.Fatal("duplicate replica destination")
			}
			if s.Dst == s.Src {
				t.Fatal("replica written to the writer itself")
			}
			dsts[s.Dst] = true
		}
	}
}

// TestMixKindFractions: the pattern selector must hit the configured
// fractions within sampling noise, and batch arrival times must be
// strictly non-decreasing.
func TestMixKindFractions(t *testing.T) {
	hosts := fakeHosts(16)
	m := testMix(31, hosts, 30000)
	counts := map[PatternKind]int{}
	batches := 0
	var prev sim.Time
	for {
		b := m.NextBatch()
		if b == nil {
			break
		}
		batches++
		counts[b[0].Kind]++
		if b[0].At < prev {
			t.Fatal("arrival times went backwards")
		}
		prev = b[0].At
	}
	inc := float64(counts[KindIncast]) / float64(batches)
	sto := float64(counts[KindStorage]) / float64(batches)
	if math.Abs(inc-0.15) > 0.02 {
		t.Errorf("incast fraction %.3f, want 0.15 ± 0.02", inc)
	}
	if math.Abs(sto-0.10) > 0.02 {
		t.Errorf("storage fraction %.3f, want 0.10 ± 0.02", sto)
	}
}

// TestMixMeanBatchBytes: replication inflates offered bytes; the load
// calibration helper must account for it.
func TestMixMeanBatchBytes(t *testing.T) {
	hosts := fakeHosts(4)
	m := testMix(1, hosts, 10)
	want := m.CDF.Mean() * (1 + 0.10*2)
	if got := m.MeanBatchBytes(); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("MeanBatchBytes=%v, want %v", got, want)
	}
}

// A Mix hands out every batch in one buffer it reuses, so whoever keeps a
// batch past the next pull must copy it. Replay does: fed a Mix of each
// pattern kind, under both beacon orders, it starts exactly the specs a
// same-seed Mix yields when each batch is copied the moment it is drawn.
func TestMixReplayMatchesDrawCopies(t *testing.T) {
	kinds := []struct {
		name            string
		incast, storage float64
		kind            PatternKind
	}{
		{"plain", 0, 0, KindPlain},
		{"incast", 1, 0, KindIncast},
		{"storage", 0, 1, KindStorage},
	}
	hosts := fakeHosts(32)
	for _, k := range kinds {
		mix := func() *Mix {
			m := testMix(77, hosts, 401) // 401: the last incast batch is cut short
			m.IncastFrac, m.StorageFrac = k.incast, k.storage
			return m
		}
		var want []FlowSpec
		widest := 0
		for _, b := range drain(mix()) {
			want = append(want, b...)
			widest = max(widest, len(b))
		}
		if len(want) != 401 || want[0].Kind != k.kind || (widest > 1) != (k.kind != KindPlain) {
			t.Fatalf("%s: drew %d specs of kind %v, widest batch %d", k.name, len(want), want[0].Kind, widest)
		}
		for _, armFirst := range []bool{false, true} {
			eng := sim.NewEngine()
			var got []FlowSpec
			Replay(eng, mix(), armFirst, func(i int, s FlowSpec) {
				if i != len(got) {
					t.Fatalf("%s armFirst %v: flow %d started as number %d", k.name, armFirst, len(got), i)
				}
				got = append(got, s)
			})
			eng.RunUntilIdle()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s armFirst %v: Replay started specs that differ from the draw-time copies", k.name, armFirst)
			}
		}
	}
}

// MaxRate returns an upper bound on Rate over all t, the envelope
// TestDiurnalEnvelope checks gaps against: every spike could overlap the
// diurnal crest.
func (d Diurnal) MaxRate() float64 {
	r := 1 + math.Abs(d.Amplitude)
	for _, s := range d.Spikes {
		if s.Factor > 1 {
			r *= s.Factor
		}
	}
	return r
}
