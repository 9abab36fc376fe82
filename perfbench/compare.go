package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// verdict is the outcome of comparing one (workload, metric) pair.
type verdict string

const (
	same       verdict = "same"       // within the bound
	worse      verdict = "worse"      // median worse by more than the bound
	better     verdict = "better"     // median better by more than the bound
	unresolved verdict = "unresolved" // a side spreads wider than the bound
)

// compareRule applies a metric's bound to two sets of runs. B is worse when
// its median is worse than A's by more than bound (a share of A's median),
// better when it is better by more than bound. When either side's
// interquartile spread exceeds the bound the pair is unresolved, unless
// every run of B reads better than every run of A.
func compareRule(a, b []float64, bound float64, higherBetter bool) verdict {
	sign := 1.0 // positive change means worse
	if higherBetter {
		sign = -1
	}
	if spread(a) > bound || spread(b) > bound {
		if len(a) > 0 && len(b) > 0 {
			sa, sb := sorted(a), sorted(b)
			bestA, worstB := sa[0], sb[len(sb)-1]
			if higherBetter {
				bestA, worstB = sa[len(sa)-1], sb[0]
			}
			if sign*(worstB-bestA) < 0 {
				return better
			}
		}
		return unresolved
	}
	ma := median(a)
	if ma == 0 {
		return unresolved
	}
	change := sign * (median(b) - ma) / ma
	switch {
	case change > bound:
		return worse
	case change < -bound:
		return better
	}
	return same
}

// runSet holds the end-to-end values of a set of runs by workload and
// metric.
type runSet map[string]map[string][]float64

// readRuns collects the untraced results from the captured standard output
// of runs: a file, or every file of a directory. A result belongs to the
// workload named by the metadata line before it.
func readRuns(path string) (runSet, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	set := runSet{}
	for _, name := range files {
		if err := readRunFile(name, set); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return set, nil
}

func readRunFile(name string, set runSet) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var meta struct {
		Workload string `json:"workload"`
		Traced   bool   `json:"traced"`
	}
	for sc.Scan() {
		line := sc.Bytes()
		var rec struct {
			Meta    *json.RawMessage `json:"meta"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if json.Unmarshal(line, &rec) != nil {
			continue
		}
		if rec.Meta != nil {
			if err := json.Unmarshal(*rec.Meta, &meta); err != nil {
				return err
			}
			continue
		}
		if rec.Metrics == nil || meta.Workload == "" || meta.Traced {
			continue
		}
		if set[meta.Workload] == nil {
			set[meta.Workload] = map[string][]float64{}
		}
		for k, v := range rec.Metrics {
			set[meta.Workload][k] = append(set[meta.Workload][k], v.Value)
		}
		meta.Workload = ""
	}
	return sc.Err()
}

// compareMain prints, per workload and end-to-end metric, the median and
// quartiles of both sets and the verdict under the metric's bound; it
// exits 1 when any metric got worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <runs-a> <runs-b>  (files or directories of captured output)")
		return 2
	}
	a, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var names []string
	for w := range a {
		if b[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(stdout, "%-6s %-16s %-5s %26s %26s %8s  %s\n", "load", "metric", "unit", "A median [q1 q3] n", "B median [q1 q3] n", "change", "verdict")
	for _, w := range names {
		for _, d := range endToEnd {
			xa, xb := a[w][d.Name], b[w][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := compareRule(xa, xb, d.Bound, d.Better == "higher")
			if v == worse {
				code = 1
			}
			fmt.Fprintf(stdout, "%-6s %-16s %-5s %26s %26s %+7.1f%%  %s (bound %.0f%%)\n", w, d.Name, d.Unit,
				describe(xa), describe(xb), 100*(median(xb)-median(xa))/median(xa), v, 100*d.Bound)
		}
	}
	return code
}

func describe(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", q2, q1, q3, len(xs))
}
