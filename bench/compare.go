package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json --compare applies.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare reads the metric lines of every run saved in parentDir and
// changeDir and judges each workload × end-to-end metric with the
// BENCHMARK.json bounds and the paired-runs rule (see verdict). It
// reads BENCHMARK.json from the working directory, the repository root,
// and exits 1 when a row regressed.
func runCompare(parentDir, changeDir string, stdout, stderr io.Writer) int {
	rows, err := compareDirs(parentDir, changeDir)
	if err != nil {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-14s %-22s %34s %34s %7s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-14s %-22s %34s %34s %3d/%-3d  %s\n", r.workload, r.metric,
			summary(r.parent), summary(r.change), r.wins, r.pairs, r.name)
		if r.name == "regressed" {
			code = 1
		}
	}
	return code
}

type compareRow struct {
	workload, metric string
	parent, change   []float64
	judgement
}

func compareDirs(parentDir, changeDir string) ([]compareRow, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	parent, err := readRuns(parentDir)
	if err != nil {
		return nil, err
	}
	change, err := readRuns(changeDir)
	if err != nil {
		return nil, err
	}
	var rows []compareRow
	for _, w := range workloadNames() {
		for _, m := range sp.EndToEnd {
			key := w + " " + m.Name
			p, c := parent[key], change[key]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			rows = append(rows, compareRow{w, m.Name, p, c, verdict(p, c, m.Better == "lower", m.Bound)})
		}
	}
	return rows, nil
}

// readRuns collects the metric lines of every file in dir, keyed by
// "workload metric", in file-name order, so runs pair up by name.
func readRuns(dir string) (map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	out := map[string][]float64{}
	for _, f := range files {
		if st, err := os.Stat(f); err != nil || !st.Mode().IsRegular() {
			continue
		}
		if err := readRun(f, out); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no metric lines in %s", dir)
	}
	return out, nil
}

func readRun(path string, out map[string][]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Name == "" {
			continue
		}
		key := r.Workload + " " + r.Name
		out[key] = append(out[key], r.Value)
	}
	return sc.Err()
}

func summary(v []float64) string {
	q1, med, q3 := quartiles(append([]float64(nil), v...))
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

type judgement struct {
	name        string
	wins, pairs int
}

// verdict judges one metric of one workload:
//   - improved: the change wins at least 9 of 10 pairs (ties count for
//     neither side) and the medians differ by more than the parent's
//     interquartile spread;
//   - regressed: the change's median is worse than the parent's by more
//     than bound, and either the parent's spread is within bound or
//     every change run is worse than every parent run;
//   - unchanged: within bound, with a parent spread within bound;
//   - unresolved: anything else, where the spread is too wide to tell.
func verdict(parent, change []float64, lowerBetter bool, bound float64) judgement {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	j := judgement{pairs: min(len(parent), len(change))}
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	q1, mp, q3 := quartiles(append([]float64(nil), parent...))
	mc := median(append([]float64(nil), change...))
	worse := (mc - mp) / math.Abs(mp)
	if !lowerBetter {
		worse = -worse
	}
	spread := (q3 - q1) / math.Abs(mp)
	allWorse := true
	for _, c := range change {
		for _, p := range parent {
			if !better(p, c) {
				allWorse = false
			}
		}
	}
	switch {
	case better(mc, mp) && j.wins*10 >= 9*j.pairs && math.Abs(mc-mp) > q3-q1:
		j.name = "improved"
	case worse > bound && (spread <= bound || allWorse):
		j.name = "regressed"
	case worse <= bound && spread <= bound:
		j.name = "unchanged"
	default:
		j.name = "unresolved"
	}
	return j
}
