package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 12.5, 11, 30, 9}, 9.5, 11, 21.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{10, 12.5, 11, 30, 9}); !near(got, (21.25-9.5)/11) {
		t.Errorf("spread = %v", got)
	}
}

func TestPercentileAndSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, order must not matter
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// The reported tail is the highest percentile with at least ten
	// samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0, 8}); !near(got, 4) {
		t.Errorf("geomean skipping zero = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// A parent [0,100) with children [10,30) and [20,50) (overlapping, as
	// two workers) and [90,120) (clipped at the parent's end); a grandchild
	// [12,18) counts against its own parent only.
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "server", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "server", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "store", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestCompareRule(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name   string
		a, b   []float64
		higher bool
		want   verdict
	}{
		{"unchanged", base, shift(base, 1.005), false, same},
		{"slower beyond bound", base, shift(base, 1.2), false, worse},
		{"slower within bound", base, shift(base, 1.08), false, same},
		{"faster everywhere", base, shift(base, 0.8), false, better},
		{"throughput dropped", base, shift(base, 0.8), true, worse},
		{"throughput rose", base, shift(base, 1.2), true, better},
		{"spread wider than bound", base, wide, false, unresolved},
		{"wide but every run better", wide, shift(base, 0.5), false, better},
		{"small disjoint shift", base, shift(base, 0.95), false, same},
	}
	for _, c := range cases {
		if got := compareRule(c.a, c.b, 0.1, c.higher); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestKnownFailure(t *testing.T) {
	const dropped = "SELECT l_orderkey FROM lineitem ORDER BY revenue DESC"
	const kept = "SELECT sum(l_extendedprice) AS revenue FROM lineitem ORDER BY revenue DESC"
	cases := []struct {
		baseline, sql, err string
		want               bool
	}{
		{"Q3", dropped, "vektor: unknown column revenue", true},
		{"Q3", kept, "vektor: unknown column revenue", false},
		{"Q3", dropped, "vektor: division by zero", false},
		{"Q11", dropped, "vektor: unknown column revenue", false},
		{"Q1", dropped, "vektor: unknown column revenue", false},
	}
	for _, c := range cases {
		if got := knownFailure(c.baseline, c.sql, c.err); got != c.want {
			t.Errorf("knownFailure(%s, %q, %q) = %v, want %v", c.baseline, c.sql, c.err, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the benchmark reports from in one place of truth.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	check := func(kind string, got []metricJSON, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (bounds && g.Bound != d.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func TestKeyedMedians(t *testing.T) {
	keys := []string{"a", "b", "a", "b", "a", "c"}
	xs := []float64{1, 10, 3, 30, 100, 7}
	got := keyedMedians(keys, xs)
	want := []float64{3, 20, 7}
	if len(got) != len(want) {
		t.Fatalf("keyedMedians = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("keyedMedians = %v, want %v", got, want)
		}
	}
}
