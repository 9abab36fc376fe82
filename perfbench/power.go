package main

import (
	"fmt"
	"time"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/trace"
	"sqalpel/internal/workload"
)

// powerSF is the TPC-H instance of the power workload: small enough that
// the interpreters' correlated sub-queries (Q4, Q21) stay affordable, the
// same instance BenchmarkEnginesTPCH uses.
const powerSF = 0.002

// dataSeed fixes the TPC-H data of every workload. At these scale factors
// the cost of the interpreters' correlated sub-queries varies several-fold
// with the data seed, which would drown any change in seed noise; the
// workload seed varies the order of the work and the query pools instead.
const dataSeed = 11

// powerFixture is the set-up of the power workload: the data, the
// registry with its shared plan cache and typed-import caches warmed, the
// seed-ordered query list and the reference fingerprint of every query.
type powerFixture struct {
	db      *engine.Database
	reg     *engine.Registry
	queries []workload.Query
	want    map[string]string
}

func setupPower(e *env, order []int) (*powerFixture, func(), error) {
	all := workload.TPCH()
	f := &powerFixture{
		db:   datagen.TPCH(datagen.TPCHOptions{ScaleFactor: powerSF, Seed: dataSeed}),
		reg:  engine.NewRegistry(),
		want: map[string]string{},
	}
	for _, i := range order {
		f.queries = append(f.queries, all[i])
	}
	// One pass on each typed engine builds the shared plans and imports the
	// typed columns; the first engine's results are the reference.
	for _, key := range typedEngines {
		eng := f.reg.Get(key)
		for _, q := range f.queries {
			res, err := eng.Execute(f.db, q.SQL, engine.ExecOptions{Parallelism: 2})
			if err != nil {
				return nil, nil, fmt.Errorf("set-up %s on %s: %w", q.ID, key, err)
			}
			fp := res.Fingerprint()
			if want, ok := f.want[q.ID]; !ok {
				f.want[q.ID] = fp
			} else if fp != want {
				return nil, nil, fmt.Errorf("set-up: %s on %s disagrees with %s", q.ID, key, typedEngines[0])
			}
		}
	}
	return f, func() { f.reg.PlanCache().DropCatalog(f.db) }, nil
}

// cell is one query on one engine.
type cell struct {
	query  string
	engine string
	dur    time.Duration
	res    *engine.Result
	err    error
	trace  *trace.QueryTrace
}

// powerPass runs every query on every engine once, one query at a time.
func powerPass(f *powerFixture) ([]cell, time.Duration) {
	cells := make([]cell, 0, len(f.queries)*len(allEngines))
	start := time.Now()
	for _, q := range f.queries {
		for _, key := range allEngines {
			cells = append(cells, runCell(f, q, key, nil, nil))
		}
	}
	return cells, time.Since(start)
}

// runCell executes one query on one engine; with a tracer it collects the
// operator spans and records the call as a span.
func runCell(f *powerFixture, q workload.Query, key string, rec *recorder, tr *trace.Tracer) cell {
	sp := rec.open("exec", q.ID+"@"+key, 0)
	t0 := time.Now()
	res, err := f.reg.Get(key).Execute(f.db, q.SQL, engine.ExecOptions{Parallelism: 2, Tracer: tr})
	c := cell{query: q.ID, engine: key, dur: time.Since(t0), res: res, err: err}
	rec.end(sp)
	if tr != nil {
		c.trace = tr.Trace(key)
	}
	return c
}

// checkCells verifies that every cell succeeded and returned the set-up
// fingerprint of its query, which makes the six engines agree.
func checkCells(o *outcome, e *env, f *powerFixture, cells []cell) {
	for _, c := range cells {
		ok := c.err == nil && c.res.Fingerprint() == f.want[c.query]
		o.check(ok, e.log, "power: %s on %s: err=%v or fingerprint differs from set-up", c.query, c.engine, c.err)
	}
}

func runPower(e *env) (*outcome, error) {
	o := newOutcome()
	order := e.rng.Perm(len(workload.TPCH()))
	f, setupS, err := timeSetup(setupRepeats(e), func() (*powerFixture, func(), error) { return setupPower(e, order) })
	if err != nil {
		return nil, err
	}
	o.meta["scale_factor"] = powerSF
	o.meta["cells_per_pass"] = len(f.queries) * len(allEngines)
	if e.traced {
		return o, powerTraced(o, e, f)
	}
	var keys []string
	var cellMS, rates []float64
	alloc := 0.0
	for start := time.Now(); len(rates) == 0 || time.Since(start) < e.seconds; {
		a0 := totalAllocMB()
		cells, wall := powerPass(f)
		alloc += totalAllocMB() - a0
		rates = append(rates, float64(len(cells))/wall.Seconds())
		for _, c := range cells {
			keys = append(keys, c.query+"@"+c.engine)
			cellMS = append(cellMS, ms(c.dur))
		}
		checkCells(o, e, f, cells)
	}
	perCell := keyedMedians(keys, cellMS)
	o.e2e["setup_s"] = setupS
	o.e2e["ops_per_s"] = median(rates)
	o.e2e["op_p50_ms"] = median(perCell)
	o.e2e["op_geomean_ms"] = geomean(perCell)
	o.e2e["alloc_mb_per_op"] = alloc / float64(len(cellMS))
	o.samples["passes"] = len(rates)
	o.samples["cells"] = len(cellMS)
	return o, nil
}

// powerTraced runs every cell twice back to back, traced and untraced, so
// that both runs see the same machine state. The order alternates from
// cell to cell, so the geometric mean of the traced-to-untraced ratios
// cancels whatever the second run of a cell gains from the first; that
// mean is the tracing overhead. The traced runs are attributed to engines
// and operator kinds, and the front end and the typed import are probed.
func powerTraced(o *outcome, e *env, f *powerFixture) error {
	h0, m0 := f.reg.PlanCache().Stats()
	var plain, cells []cell
	var ratios []float64
	for i, q := range f.queries {
		for j, key := range allEngines {
			var p, t cell
			if (i+j)%2 == 0 {
				p = runCell(f, q, key, nil, nil)
				t = runCell(f, q, key, e.rec, trace.NewTracer())
			} else {
				t = runCell(f, q, key, e.rec, trace.NewTracer())
				p = runCell(f, q, key, nil, nil)
			}
			plain, cells = append(plain, p), append(cells, t)
			ratios = append(ratios, ratio(float64(t.dur), float64(p.dur)))
		}
	}
	h1, m1 := f.reg.PlanCache().Stats()
	checkCells(o, e, f, plain)
	checkCells(o, e, f, cells)
	o.layer["plan.cache_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	o.layer["trace.overhead_pct"] = 100 * (geomean(ratios) - 1)

	perEngine := map[string][]float64{}
	for _, c := range cells {
		perEngine[c.engine] = append(perEngine[c.engine], ms(c.dur))
		if c.err != nil {
			continue
		}
		// Only the metrics declared in perLayer are reported: scan counters
		// of the typed engines and spans of the listed operator kinds.
		o.layer["exec.rows_scanned."+c.engine] += float64(c.res.Stats.RowsScanned)
		o.layer["exec.blocks_skipped."+c.engine] += float64(c.res.Stats.BlocksSkipped)
		for _, sp := range c.trace.Spans {
			o.layer[fmt.Sprintf("op.%s.%s_ms", c.engine, sp.Kind)] += float64(sp.WallNS) / 1e6
		}
	}
	for key, xs := range perEngine {
		o.layer["exec.geomean_ms."+key] = geomean(xs)
		o.layer["exec.total_ms."+key] = sum(xs)
	}
	o.samples["cells"] = len(cells)
	frontEndProbes(o, e, f.db)
	return importProbe(o, e, f.db)
}

// frontEndProbes times sqlparser.Parse and a cold plan.Build of the 22
// TPC-H texts against the TPC-H catalog db.
func frontEndProbes(o *outcome, e *env, db *engine.Database) {
	var parse, build []float64
	for _, q := range workload.TPCH() {
		sp := e.rec.open("sqlparser.parse", q.ID, 0)
		t0 := time.Now()
		_, err := sqlparser.Parse(q.SQL)
		parse = append(parse, us(time.Since(t0)))
		e.rec.end(sp)
		o.check(err == nil, e.log, "parse %s: %v", q.ID, err)

		sp = e.rec.open("plan.build", q.ID, 0)
		t0 = time.Now()
		_, err = plan.Build(db, q.SQL)
		build = append(build, us(time.Since(t0)))
		e.rec.end(sp)
		o.check(err == nil, e.log, "plan %s: %v", q.ID, err)
	}
	o.layer["sqlparser.parse_us"] = median(parse)
	o.layer["plan.build_us"] = median(build)
	o.samples["sqlparser.parse_us"] = len(parse)
	o.samples["plan.build_us"] = len(build)
}

// importProbe times the typed import of every table: a fresh engine's first
// SELECT count(*) minus its second, summed over the tables.
func importProbe(o *outcome, e *env, db *engine.Database) error {
	reg := engine.NewRegistry()
	for _, key := range typedEngines {
		eng := reg.Get(key)
		total := 0.0
		for _, t := range db.Tables() {
			sql := "SELECT count(*) FROM " + t.Name
			sp := e.rec.open("engine.import", key+"/"+t.Name, 0)
			t0 := time.Now()
			_, err := eng.Execute(db, sql, engine.ExecOptions{})
			cold := time.Since(t0)
			e.rec.end(sp)
			if err != nil {
				return fmt.Errorf("import probe %s on %s: %w", t.Name, key, err)
			}
			t0 = time.Now()
			if _, err := eng.Execute(db, sql, engine.ExecOptions{}); err != nil {
				return fmt.Errorf("import probe %s on %s: %w", t.Name, key, err)
			}
			total += ms(cold - time.Since(t0))
		}
		o.layer["engine.import_ms."+key] = total
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupRepeats is how many times a run sets up; the median is setup_s. A
// traced run sets up once.
func setupRepeats(e *env) int {
	if e.traced {
		return 1
	}
	return 5
}
