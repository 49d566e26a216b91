package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// Snapshot is one point of the persisted benchmark trajectory, written as
// BENCH_<timestamp>.json in the repository root. Metrics are lower-is-better
// except the throughput metrics (suffix "_per_sec" or "_per_wallsec"), which
// are higher-is-better; Compare treats each one as a headline.
type Snapshot struct {
	Schema    int    `json:"schema"`
	CreatedAt string `json:"created_at"`
	GoVersion string `json:"go_version"`
	// Scales lists the experiment scales whose wall-clock times are
	// included (micro-benchmarks are scale-independent).
	Scales []string `json:"scales"`
	Seed   int64    `json:"seed"`
	// Shards, Procs, and CPU identify the execution configuration the
	// wall-clock metrics were measured under: the -shards flag in effect,
	// runtime.GOMAXPROCS, and the CPU model. Wall-clock numbers from
	// different configurations are not comparable — a 4-shard run on an
	// 8-core box against a serial run on a laptop measures the hardware,
	// not the code — so Comparable (and fbbench -compare) refuses to diff
	// across a mismatch. Snapshots written before these fields existed
	// carry zero values and skip the check.
	Shards int    `json:"shards,omitempty"`
	Procs  int    `json:"gomaxprocs,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Engine names the simulation engine the exp_* wall-clock metrics were
	// measured with ("packet" or "fluid"). Both engines emit the same metric
	// names for the same experiments, so a cross-engine diff would compare
	// two different simulators — not a code change — and Comparable refuses
	// it outright. Snapshots written before this field existed carry "" and
	// mean the packet engine.
	Engine string `json:"engine,omitempty"`
	// Metrics maps metric name -> value. Conventions:
	//   engine_schedule_ns_op / _allocs_op       per-event scheduler cost
	//   packet_hop_ns / packet_hop_allocs        per switch-hop fabric cost
	//   tcp_transfer_10mb_ms / _allocs           one 10 MB transfer
	//   exp_<name>_<scale>_wall_ms               one experiment run's wall clock
	//   exp_<name>_<scale>_events_per_sec        engine events per wall second
	//   exp_<name>_<scale>_simsec_per_wallsec    simulated s per wall second
	//   exp_<name>_<scale>_flows_per_sec         completed flows per wall second
	//   fluid_a2a_<flows>_flows_per_sec          fluid-engine all-to-all throughput
	//   fluid_a2a_spray_<flows>_flows_per_sec    the same with every flow sprayed
	Metrics map[string]float64 `json:"metrics"`
}

// FilePrefix and pattern for trajectory snapshots.
const FilePrefix = "BENCH_"

// NewSnapshot returns an empty snapshot stamped with the current time,
// toolchain, and execution environment (GOMAXPROCS and CPU model; the shard
// configuration is the caller's to set).
func NewSnapshot(goVersion string, seed int64) *Snapshot {
	return &Snapshot{
		Schema:    1,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: goVersion,
		Seed:      seed,
		Procs:     runtime.GOMAXPROCS(0),
		CPU:       CPUModel(),
		Metrics:   map[string]float64{},
	}
}

// CPUModel returns the processor model string from /proc/cpuinfo, or the
// architecture name where that is unavailable (non-Linux, restricted /proc).
func CPUModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			}
		}
	}
	return runtime.GOARCH
}

// Comparable reports (as an error) whether old's wall-clock metrics can be
// meaningfully diffed against new's: the shard configuration, GOMAXPROCS,
// and CPU model must all match. Legacy snapshots with no recorded
// configuration are accepted as-is — there is nothing to check against.
func Comparable(old, new *Snapshot) error {
	// Engine identity is checked even against legacy snapshots: a legacy
	// snapshot is by definition a packet-engine measurement, and a fluid
	// snapshot's exp_* metrics describe a different simulator entirely.
	if eo, en := engineName(old.Engine), engineName(new.Engine); eo != en {
		return fmt.Errorf("benchkit: snapshots measure different engines (%s vs %s); their experiment metrics share names but describe different simulators — re-measure with -engine %s or pick a matching -baseline", eo, en, eo)
	}
	if old.Shards == 0 && old.Procs == 0 && old.CPU == "" {
		return nil
	}
	var diffs []string
	if old.Shards != new.Shards {
		diffs = append(diffs, fmt.Sprintf("shards %d vs %d", old.Shards, new.Shards))
	}
	if old.Procs != new.Procs {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", old.Procs, new.Procs))
	}
	if old.CPU != new.CPU {
		diffs = append(diffs, fmt.Sprintf("CPU %q vs %q", old.CPU, new.CPU))
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("benchkit: snapshots were measured under different configurations (%s); wall-clock diffs would compare hardware, not code — re-measure with a matching setup or pick a -baseline from the same machine",
		strings.Join(diffs, ", "))
}

// Filename returns the canonical snapshot filename for the creation time.
func (s *Snapshot) Filename() string {
	t, err := time.Parse(time.RFC3339, s.CreatedAt)
	if err != nil {
		t = time.Now().UTC()
	}
	return FilePrefix + t.Format("20060102-150405") + ".json"
}

// Write stores the snapshot under dir with its canonical filename and
// returns the full path.
func (s *Snapshot) Write(dir string) (string, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, s.Filename())
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads one snapshot file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchkit: %s: %w", path, err)
	}
	if s.Metrics == nil {
		return nil, fmt.Errorf("benchkit: %s: no metrics", path)
	}
	return &s, nil
}

// NewestTwo returns the paths of the two newest snapshots in dir, older
// first. Snapshot filenames embed their UTC timestamp, so lexicographic
// order is chronological order.
func NewestTwo(dir string) (older, newer string, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, FilePrefix+"*.json"))
	if err != nil {
		return "", "", err
	}
	if len(paths) < 2 {
		return "", "", fmt.Errorf("benchkit: need at least two %s*.json snapshots in %s, found %d", FilePrefix, dir, len(paths))
	}
	sort.Strings(paths)
	return paths[len(paths)-2], paths[len(paths)-1], nil
}

// Newest returns the path of the single newest snapshot in dir.
func Newest(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, FilePrefix+"*.json"))
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("benchkit: no %s*.json snapshots in %s", FilePrefix, dir)
	}
	sort.Strings(paths)
	return paths[len(paths)-1], nil
}

// higherIsBetter reports whether a metric is a throughput (bigger numbers
// are improvements): the events-per-second and simulated-time-per-wall-
// second rates the experiment harness reports.
func higherIsBetter(name string) bool {
	return strings.HasSuffix(name, "_per_sec") || strings.HasSuffix(name, "_per_wallsec")
}

// engineName normalizes a snapshot's engine label: snapshots written before
// the Engine field existed are packet-engine measurements.
func engineName(e string) string {
	if e == "" {
		return "packet"
	}
	return e
}

// UnitOf maps a metric name to its display unit by suffix convention, so
// -compare output reads as measurements rather than bare numbers. Unknown
// suffixes get no unit.
func UnitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_flows_per_sec"):
		return " flows/s"
	case strings.HasSuffix(name, "_events_per_sec"):
		return " events/s"
	case strings.HasSuffix(name, "_simsec_per_wallsec"):
		return " sim-s/s"
	case strings.HasSuffix(name, "_wall_ms"), strings.HasSuffix(name, "_ms"):
		return " ms"
	case strings.HasSuffix(name, "_ns_op"):
		return " ns/op"
	case strings.HasSuffix(name, "_allocs_op"):
		return " allocs/op"
	case strings.HasSuffix(name, "_ns_per_hop"):
		return " ns/hop"
	case strings.HasSuffix(name, "_allocs_per_hop"):
		return " allocs/hop"
	}
	return ""
}

// Regression is one headline metric that got worse past the tolerance.
type Regression struct {
	Metric   string
	Old, New float64
}

func (r Regression) String() string {
	unit := UnitOf(r.Metric)
	return fmt.Sprintf("%s: %.4g%s -> %.4g%s (%+.1f%%)", r.Metric, r.Old, unit, r.New, unit, 100*(r.New-r.Old)/nonzero(r.Old))
}

func nonzero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// Compare checks every metric present in old against new with the given
// fractional tolerance (0.10 = fail on >10% worse). Metrics are
// lower-is-better except throughputs (see higherIsBetter), which regress by
// shrinking instead of growing. A metric missing from new, or a zero
// lower-is-better metric (e.g. allocs/op) that becomes nonzero, is a
// regression. Metrics only present in new are informational and ignored.
// Experiment metrics (exp_*) are single-shot timings and inherently noisier
// than the averaged micro-benchmarks, so they get 3x the tolerance.
func Compare(old, new *Snapshot, tolerance float64) []Regression {
	var regs []Regression
	names := make([]string, 0, len(old.Metrics))
	for name := range old.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tol := tolerance
		if strings.HasPrefix(name, "exp_") {
			tol = 3 * tolerance
		}
		ov := old.Metrics[name]
		nv, ok := new.Metrics[name]
		switch {
		case !ok:
			regs = append(regs, Regression{Metric: name + " (missing)", Old: ov, New: 0})
		case higherIsBetter(name):
			if ov > 0 && nv < ov*(1-tol) {
				regs = append(regs, Regression{Metric: name, Old: ov, New: nv})
			}
		case ov == 0 && nv > 0.5:
			// An allocation-free path growing any allocations is a
			// regression regardless of the relative tolerance.
			regs = append(regs, Regression{Metric: name, Old: ov, New: nv})
		case ov > 0 && nv > ov*(1+tol):
			regs = append(regs, Regression{Metric: name, Old: ov, New: nv})
		}
	}
	return regs
}

// measureRounds is how many times Measure repeats each micro-benchmark,
// folding in the best round per metric. A single testing.Benchmark draw is
// hostage to whatever else the machine does during that second; the best of
// a few spaced draws is the reproducible cost of the code itself, which is
// what the trajectory tracks.
const measureRounds = 3

// Measure runs fn under testing.Benchmark measureRounds times and folds the
// best round of each metric into the snapshot: <name>_ns_op and
// <name>_allocs_op, plus any b.ReportMetric extras as <name>_<metric> (with
// "/" mapped to "_per_"). "Best" is the minimum, or the maximum for
// throughput metrics (see higherIsBetter). The last round's raw result is
// returned for callers that want iteration counts.
func (s *Snapshot) Measure(name string, fn func(b *testing.B)) testing.BenchmarkResult {
	var res testing.BenchmarkResult
	for round := 0; round < measureRounds; round++ {
		res = testing.Benchmark(fn)
		s.Fold(name+"_ns_op", float64(res.NsPerOp()))
		s.Fold(name+"_allocs_op", float64(res.AllocsPerOp()))
		for metric, v := range res.Extra {
			s.Fold(name+"_"+sanitize(metric), v)
		}
	}
	return res
}

// Fold records v under name, keeping the better of v and any prior round's
// value.
func (s *Snapshot) Fold(name string, v float64) {
	old, ok := s.Metrics[name]
	if !ok || (higherIsBetter(name) && v > old) || (!higherIsBetter(name) && v < old) {
		s.Metrics[name] = v
	}
}

func sanitize(metric string) string {
	out := make([]rune, 0, len(metric))
	for _, r := range metric {
		if r == '/' {
			out = append(out, '_', 'p', 'e', 'r', '_')
		} else {
			out = append(out, r)
		}
	}
	return string(out)
}
