package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// record is one run of one workload, as -all prints it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Digest   string `json:"result_digest"`
	Result   result `json:"result"`
}

// runChild runs one workload in a process of its own, so that set-up time
// and the resident high-water mark are that workload's alone, and parses
// what it printed.
func runChild(w benchWorkload, seed int64, seconds float64, trace int, declPath, outDir string) (record, error) {
	exe, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	cmd := exec.Command(exe,
		"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-decl", declPath, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return record{}, fmt.Errorf("%s seed %d trace %d: %w", w.name, seed, trace, err)
	}
	rec := record{Workload: w.name, Seed: seed, Trace: trace}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, l := range lines {
		if d, ok := strings.CutPrefix(string(l), "result_digest "); ok {
			rec.Digest = d
		}
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rec.Result); err != nil {
		return record{}, fmt.Errorf("%s seed %d trace %d: last line is not a result: %w", w.name, seed, trace, err)
	}
	return rec, nil
}

// runChildren runs every workload `runs` times untraced and, when traced is
// set, once more traced. Every run of a workload simulates the same
// reference passes, so all their digests must agree.
func runChildren(seed int64, runs int, seconds float64, traced bool, declPath, outDir string) ([]record, error) {
	var recs []record
	for _, w := range workloads {
		first := len(recs)
		for i := 0; i < runs; i++ {
			rec, err := runChild(w, seed+int64(i), seconds, 0, declPath, outDir)
			if err != nil {
				return nil, err
			}
			recs = append(recs, rec)
		}
		if traced {
			rec, err := runChild(w, seed, seconds, 1, declPath, outDir)
			if err != nil {
				return nil, err
			}
			recs = append(recs, rec)
		}
		for _, r := range recs[first:] {
			if r.Digest != recs[first].Digest {
				return nil, fmt.Errorf("%s: result_digest %s at seed %d trace %d, %s at seed %d trace %d",
					w.name, r.Digest, r.Seed, r.Trace, recs[first].Digest, recs[first].Seed, recs[first].Trace)
			}
		}
	}
	return recs, nil
}

func writeRecords(w io.Writer, recs []record) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the pipeline accepting this benchmark computes. One value is its own
// quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spreadOf is the interquartile distance as a share of the median.
func spreadOf(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// valuesOf gathers one end-to-end metric of one workload over untraced runs.
func valuesOf(recs []record, workload, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Result.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// writeCalibration prints, per workload and end-to-end metric, the extremes
// and quartiles over the runs, and the spread next to the declared bound.
func writeCalibration(w io.Writer, recs []record, declPath string) error {
	d, err := loadDeclaration(declPath)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "| workload | metric | unit | runs | min | q1 | median | q3 | max | spread | bound |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|")
	for _, wl := range workloads {
		for _, m := range d.EndToEnd {
			xs := valuesOf(recs, wl.name, m.Name)
			if len(xs) == 0 {
				continue
			}
			sort.Float64s(xs)
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(w, "| %s | %s | %s | %d | %.4g | %.4g | %.4g | %.4g | %.4g | %.1f%% | %.0f%% |\n",
				wl.name, m.Name, m.Unit, len(xs), xs[0], q1, q2, q3, xs[len(xs)-1], spreadOf(xs)*100, m.Bound*100)
		}
	}
	return nil
}

// failShare is failed operations over attempted, across a file's runs.
func failShare(recs []record) float64 {
	var failed, attempted int64
	for _, r := range recs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles prints one row per workload and end-to-end metric with both
// medians, the declared bound and a verdict, and reports whether the new
// file is free of regressions: no metric worse than its bound allows and no
// larger share of failed operations.
func compareFiles(w io.Writer, oldPath, newPath, declPath string) (bool, error) {
	d, err := loadDeclaration(declPath)
	if err != nil {
		return false, err
	}
	olds, err := readRecords(oldPath)
	if err != nil {
		return false, err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	ok := true
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tchange\tbound\tverdict")
	for _, wl := range workloads {
		for _, m := range d.EndToEnd {
			o, n := valuesOf(olds, wl.name, m.Name), valuesOf(news, wl.name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			om, nm := median(o), median(n)
			v := verdict(o, n, m)
			if v == "worse" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.0f%%\t%s\n",
				wl.name, m.Name, om, m.Unit, nm, m.Unit, (nm/om-1)*100, m.Bound*100, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if of, nf := failShare(olds), failShare(news); nf > of {
		fmt.Fprintf(w, "failed operations rose from %.3g to %.3g of those attempted\n", of, nf)
		ok = false
	}
	return ok, nil
}

// verdict judges one metric of one workload. A move is unresolved when the
// runs' own spread is wider than the bound, unless every new run beats every
// old one; it is worse when the median worsens by more than the bound, and
// better when it improves by more than the spread.
func verdict(olds, news []float64, m declMetric) string {
	sign := 1.0 // worsening is a rise, unless higher is better
	if m.Better == "higher" {
		sign = -1
	}
	om, nm := median(olds), median(news)
	worsening := sign * (nm - om) / om
	spread := spreadOf(olds)
	if s := spreadOf(news); s > spread {
		spread = s
	}
	if spread > m.Bound {
		allBetter := true
		for _, n := range news {
			for _, o := range olds {
				if sign*(n-o) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worsening > m.Bound:
		return "worse"
	case -worsening > spread && worsening < 0:
		return "better"
	}
	return "same"
}
