package main

import (
	"fmt"

	"sqalpel/internal/trace"
)

// metricDef declares one reported metric. End-to-end metrics carry the
// share of the parent's median by which they may worsen (Bound).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// The end-to-end metrics every workload reports with tracing off. An
// operation is the workload's unit of user-visible work: a query cell
// (one TPC-H query on one engine) on power, an acknowledged task on drain,
// an experiment creation on space.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// Engine keys of engine.NewRegistry, in registration order, and the three
// that import boxed tables into typed columns.
var (
	allEngines   = []string{"tuplestore-1.0", "columba-1.0", "columba-2.0", "vektor-1.0", "vektor-2.0", "fusil-1.0"}
	typedEngines = []string{"vektor-1.0", "vektor-2.0", "fusil-1.0"}
	opKinds      = []string{trace.KindScan, trace.KindFilter, trace.KindHashJoin, trace.KindJoinTree, trace.KindAgg, trace.KindSort, trace.KindSubquery}
)

// perLayer lists the metrics a traced run reports. A traced run reports
// every one of them; a metric whose layer its workload does not exercise
// reads 0. README.md records, per metric, the workload that measures it
// and the end-to-end metric it should move.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	add("failed_frac", "ratio", "lower")
	add("sqlparser.parse_us", "us", "lower")
	add("plan.build_us", "us", "lower")
	add("plan.cache_hit_ratio", "ratio", "higher")
	for _, e := range typedEngines {
		add("engine.import_ms."+e, "ms", "lower")
	}
	for _, e := range allEngines {
		add("exec.geomean_ms."+e, "ms", "lower")
		add("exec.total_ms."+e, "ms", "lower")
	}
	for _, e := range typedEngines {
		add("exec.rows_scanned."+e, "count", "lower")
		add("exec.blocks_skipped."+e, "count", "higher")
	}
	for _, e := range allEngines {
		for _, k := range opKinds {
			add(fmt.Sprintf("op.%s.%s_ms", e, k), "ms", "lower")
		}
	}
	add("trace.overhead_pct", "%", "lower")
	add("driver.engine_ms", "ms", "lower")
	add("driver.platform_share", "ratio", "lower")
	add("driver.lost_leases", "count", "lower")
	add("drain.browse_p50_ms", "ms", "lower")
	add("drain.known_failures", "count", "lower")
	add("server.lease_p50_ms", "ms", "lower")
	add("server.complete_p50_ms", "ms", "lower")
	add("server.complete_p99_ms", "ms", "lower")
	add("server.results_p50_ms", "ms", "lower")
	add("server.results_csv_p50_ms", "ms", "lower")
	add("server.speedup_p50_ms", "ms", "lower")
	add("server.browse_p90_ms", "ms", "lower")
	add("server.create_p50_ms", "ms", "lower")
	add("http.overhead_ms", "ms", "lower")
	add("repository.lease_us", "us", "lower")
	add("repository.complete_us", "us", "lower")
	add("repository.complete_mem_us", "us", "lower")
	add("repository.wal_us", "us", "lower")
	add("repository.lease_growth", "ratio", "lower")
	add("derive.from_sql_ms", "ms", "lower")
	add("grammar.enumerate_ms", "ms", "lower")
	add("grammar.enumerate_ms.Q19", "ms", "lower")
	add("grammar.enumerate_alloc_mb", "MB", "lower")
	add("grammar.templates", "count", "lower")
	add("pool.seed_ms", "ms", "lower")
	add("pool.grow_ms", "ms", "lower")
	return out
}
