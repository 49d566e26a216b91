package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"flowbender/internal/experiments"
)

// decl is one metric the benchmark emits. The tables below are the program's
// side of the contract; BENCHMARK.json is the published side, and every run
// checks that the two agree.
type decl struct{ name, unit string }

var endToEnd = []decl{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"flows_per_sec", "1/s"},
	{"alloc_mb", "MB"},
}

var perLayer = func() []decl {
	d := []decl{
		{"sim.events", "count"}, {"sim.run_self_s", "s"}, {"sim.ns_per_event", "ns"},
		{"sim.schedule_ns", "ns"}, {"sim.schedule_allocs", "count"}, {"sim.queue_share_pct", "%"},
		{"sim.shard2_speedup", "x"}, {"sim.shard2_event_skew", "x"},

		{"netsim.hops", "count"}, {"netsim.events_per_hop", "count"}, {"netsim.drops", "count"},
		{"netsim.marked_pct", "%"}, {"netsim.max_queue_kb", "KB"},
		{"netsim.hop_ns", "ns"}, {"netsim.hop_allocs", "count"},

		{"routing.hash_ns", "ns"},

		{"tcp.start_us_per_flow", "us"}, {"tcp.start_allocs_per_flow", "count"}, {"tcp.start_s", "s"},
		{"tcp.data_packets", "count"}, {"tcp.retransmits", "count"}, {"tcp.timeouts", "count"},
		{"tcp.ooo_pct", "%"}, {"tcp.goodput_ratio", "x"},
		{"tcp.transfer10mb_ms", "ms"}, {"tcp.transfer10mb_allocs", "count"},

		{"core.reroutes", "count"}, {"core.epochs", "count"}, {"core.congested_epoch_pct", "%"},
		{"core.suppressed_by_gap", "count"}, {"core.epoch_ns", "ns"},
		{"core.fb_mean_norm", "x"}, {"core.fb_p99_norm", "x"},

		{"topo.build_ms", "ms"}, {"topo.build_allocs", "count"},

		{"workload.draw_s", "s"}, {"workload.draw_ns_per_flow", "ns"},

		{"stats.record_s", "s"}, {"stats.add_ns_exact", "ns"}, {"stats.add_ns_collapsed", "ns"},
		{"stats.quantile_us", "us"}, {"stats.merge_us", "us"}, {"stats.collapsed_bins", "count"},

		{"fluid.net_build_ms", "ms"}, {"fluid.arrive_s", "s"}, {"fluid.arrive_us_per_flow", "us"},
		{"fluid.run_self_s", "s"}, {"fluid.us_per_event", "us"}, {"fluid.events_per_flow", "count"},
		{"fluid.peak_active_flows", "count"}, {"fluid.reroutes", "count"},
		{"fluid.commit_ns_small", "ns"}, {"fluid.commit_us_coupled", "us"}, {"fluid.sshard2_speedup", "x"},
		{"fluid.fidelity_p50_err_pct", "%"}, {"fluid.fidelity_p99_err_pct", "%"},

		{"experiments.point_overhead_pct", "%"}, {"experiments.drain_check_s", "s"},
		{"experiments.render_ms", "ms"}, {"experiments.json_ms", "ms"},
		{"experiments.peak_rss_mb", "MB"}, {"experiments.gc_pause_ms", "ms"}, {"experiments.cpu_s", "s"},

		{"runpool.utilisation_pct", "%"}, {"runpool.p2_speedup", "x"}, {"runpool.submit_us", "us"},

		{"checkpoint.save_ms", "ms"}, {"checkpoint.load_ms", "ms"}, {"checkpoint.tick_overhead_pct", "%"},

		{"trace_overhead_pct", "%"}, {"unattributed_pct", "%"},
	}
	for _, e := range experiments.Registry {
		d = append(d, decl{"exp." + e.Name + "_s", "s"})
	}
	return d
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, operation counts and failed checks.
type report struct {
	decls     []decl
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

func newReport(decls []decl) *report {
	return &report{decls: decls, metrics: make(map[string]metric)}
}

// set records a metric under its declared unit. Setting an undeclared name
// is a check failure, so nothing undeclared can be emitted unnoticed.
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.failf("metric %q is %v", name, v)
		v = 0
	}
	for _, d := range r.decls {
		if d.name == name {
			r.metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	r.failf("metric %q is emitted but not declared", name)
}

func (r *report) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// addPass counts a pass' operations and carries its failed checks over.
func (r *report) addPass(p passResult) {
	r.attempted += p.ops
	r.failed += p.failed
	r.problems = append(r.problems, p.problems...)
}

// sameDigest checks that identical passes rendered identical output.
func (r *report) sameDigest(what string, digests []string) {
	for _, d := range digests[1:] {
		if d != digests[0] {
			r.failf("%s: result_digest differs between identical passes: %v", what, digests)
			return
		}
	}
}

// finish checks the emitted set against the program's tables and against
// the published declaration, and folds every failed check into the result.
func (r *report) finish(declPath string, traced bool) result {
	for _, d := range r.decls {
		if _, ok := r.metrics[d.name]; !ok {
			r.failf("metric %q is declared but was not emitted", d.name)
		}
	}
	if err := checkDeclaration(declPath, traced, r.decls); err != nil {
		r.failf("%v", err)
	}
	failed := r.failed + int64(len(r.problems))
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "bench: CHECK FAILED:", p)
	}
	return result{Correct: failed == 0, Attempted: r.attempted, Failed: failed, Metrics: r.metrics}
}

// declaration is the part of BENCHMARK.json the program reads.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// checkDeclaration compares the names and units BENCHMARK.json publishes for
// this mode with the program's table.
func checkDeclaration(path string, traced bool, decls []decl) error {
	d, err := loadDeclaration(path)
	if err != nil {
		return err
	}
	published := d.EndToEnd
	if traced {
		published = d.PerLayer
	}
	want := make(map[string]string, len(decls))
	for _, m := range decls {
		want[m.name] = m.unit
	}
	var diffs []string
	for _, m := range published {
		unit, ok := want[m.Name]
		switch {
		case !ok:
			diffs = append(diffs, m.Name+" is published but not emitted")
		case unit != m.Unit:
			diffs = append(diffs, fmt.Sprintf("%s is published in %s but emitted in %s", m.Name, m.Unit, unit))
		}
		delete(want, m.Name)
	}
	for name := range want {
		diffs = append(diffs, name+" is emitted but not published")
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	return fmt.Errorf("%s disagrees with the program: %v", path, diffs)
}
