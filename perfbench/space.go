package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"sqalpel/internal/datagen"
	"sqalpel/internal/derive"
	"sqalpel/internal/grammar"
	"sqalpel/internal/pool"
	"sqalpel/internal/workload"
)

// The space workload's pool sizes, as a user would request them: seed each
// new experiment's pool with 32 random queries, then grow it by 16.
const (
	spaceSeedRandom = 32
	spaceGrow       = 16
)

// created is what the platform answered for one baseline.
type created struct {
	id      string
	grammar string
	queries int
}

// spacePass starts a fresh platform, so that no pool of an earlier pass
// stays in the server's memory, and creates every baseline as an
// experiment and grows its pool, as a user does from the web UI. The
// platform seeds a pool from its project id, so the workload seed decides
// how many other projects precede the one the pass fills. It returns the
// creation latencies, the pass's wall time and the platform's answers.
func spacePass(e *env, obs *observer, queries []workload.Query, pass int) ([]float64, time.Duration, []created, error) {
	p, err := startPlatform(filepath.Join(e.dir, fmt.Sprintf("space-pass-%d", pass)), obs)
	if err != nil {
		return nil, 0, nil, err
	}
	defer p.close()
	for i := 0; i <= int(uint64(e.seed)%16); i++ {
		if err := p.newProject(fmt.Sprintf("space-%d", i)); err != nil {
			return nil, 0, nil, err
		}
	}
	var lat []float64
	var out []created
	start := time.Now()
	for _, q := range queries {
		var exp struct {
			ID      int    `json:"experiment_id"`
			Grammar string `json:"grammar_text"`
			Count   int    `json:"query_count"`
		}
		t0 := time.Now()
		err := p.call("POST", fmt.Sprintf("/api/projects/%d/experiments", p.project),
			map[string]any{"title": q.ID, "baseline_sql": q.SQL, "seed_random": spaceSeedRandom}, http.StatusCreated, &exp)
		lat = append(lat, ms(time.Since(t0)))
		if err != nil {
			return nil, 0, nil, fmt.Errorf("creating %s: %w", q.ID, err)
		}
		var grown struct {
			Count int `json:"query_count"`
		}
		if err := p.call("POST", fmt.Sprintf("/api/projects/%d/experiments/%d/grow", p.project, exp.ID),
			map[string]any{"count": spaceGrow}, http.StatusOK, &grown); err != nil {
			return nil, 0, nil, fmt.Errorf("growing %s: %w", q.ID, err)
		}
		if grown.Count < exp.Count {
			grown.Count = -1 // a pool that shrank fails the check below
		}
		out = append(out, created{id: q.ID, grammar: exp.Grammar, queries: grown.Count})
	}
	return lat, time.Since(start), out, nil
}

// checkCreated verifies the platform's answers of one pass: every pool
// holds at least its baseline, and the platform derived the same grammar
// as derive.FromSQL does for the baseline.
func checkCreated(o *outcome, e *env, got []created, want map[string]string) {
	for _, c := range got {
		o.check(c.queries >= 1 && c.grammar == want[c.id], e.log, "space: %s: %d queries, grammar differs from derive.FromSQL: %v", c.id, c.queries, c.grammar != want[c.id])
	}
}

// deriveAll derives the grammar of every baseline through the library.
func deriveAll(queries []workload.Query) (map[string]*grammar.Grammar, map[string]string, error) {
	gs, texts := map[string]*grammar.Grammar{}, map[string]string{}
	for _, q := range queries {
		g, err := derive.FromSQL(q.SQL, derive.DefaultOptions())
		if err != nil {
			return nil, nil, fmt.Errorf("deriving %s: %w", q.ID, err)
		}
		gs[q.ID], texts[q.ID] = g, g.String()
	}
	return gs, texts, nil
}

// checkSpace enumerates the baseline's grammar, as the platform does when
// it creates the experiment's pool, and compares the space with the
// baseline's golden.
func checkSpace(o *outcome, e *env, id string, g *grammar.Grammar) spaceGolden {
	var got spaceGolden
	gen, err := grammar.NewGenerator(g, grammar.GeneratorOptions{})
	if err == nil {
		en := gen.Enumeration()
		got = spaceGolden{Templates: en.TemplateCount(), Space: en.Space, Saturated: en.SpaceSaturated(), Capped: en.Capped}
	}
	want := spaceGoldens[id]
	o.check(err == nil && got == want, e.log, "space: %s: space %+v, want %+v (err %v)", id, got, want, err)
	return got
}

func runSpace(e *env) (*outcome, error) {
	o := newOutcome()
	// The baselines run in TPC-H order in every pass, so that the garbage
	// Q19's enumeration leaves always slows the same creations after it.
	queries := workload.TPCH()
	obs := newObserver(e.rec)
	defer obs.install()()
	n := 0
	last, setupS, err := timeSetup(setupRepeats(e), func() (*platform, func(), error) {
		n++
		p, err := startPlatform(filepath.Join(e.dir, fmt.Sprintf("space-setup-%d", n)), obs)
		if err != nil {
			return nil, nil, err
		}
		return p, p.close, nil
	})
	if err != nil {
		return nil, err
	}
	last.close() // every pass starts a platform of its own
	o.meta["seed_random"] = spaceSeedRandom
	o.meta["grow"] = spaceGrow
	derived, grammars, err := deriveAll(queries)
	if err != nil {
		return nil, err
	}
	obs.take()
	if e.traced {
		lat, _, got, err := spacePass(e, obs, queries, 0)
		if err != nil {
			return nil, err
		}
		checkCreated(o, e, got, grammars)
		_, server, _ := obs.take()
		o.layer["server.create_p50_ms"] = median(server["POST /api/projects/*/experiments"])
		o.samples["creations"] = len(lat)
		db := datagen.TPCH(datagen.TPCHOptions{ScaleFactor: drainSF, Seed: dataSeed})
		frontEndProbes(o, e, db)
		return o, offlineProbes(o, e, queries)
	}
	var keys []string
	var lat, rates []float64
	alloc := 0.0
	for start := time.Now(); len(rates) == 0 || time.Since(start) < e.seconds; {
		// Each pass starts from a collected heap: the previous pass's
		// platform, with its Q19 pool, is garbage by now.
		runtime.GC()
		a0 := totalAllocMB()
		l, wall, got, err := spacePass(e, obs, queries, len(rates))
		if err != nil {
			return nil, err
		}
		alloc += totalAllocMB() - a0
		rates = append(rates, float64(len(l))/wall.Seconds())
		lat = append(lat, l...)
		for _, c := range got {
			keys = append(keys, c.id)
		}
		checkCreated(o, e, got, grammars)
	}
	for _, q := range queries {
		checkSpace(o, e, q.ID, derived[q.ID])
	}
	perBaseline := keyedMedians(keys, lat)
	o.e2e["setup_s"] = setupS
	o.e2e["ops_per_s"] = median(rates)
	o.e2e["op_p50_ms"] = median(perBaseline)
	o.e2e["op_geomean_ms"] = geomean(perBaseline)
	o.e2e["alloc_mb_per_op"] = alloc / float64(len(lat))
	o.samples["passes"] = len(rates)
	o.samples["creations"] = len(lat)
	return o, nil
}

// offlineProbes times the paper's offline path per baseline through the
// library: derive the grammar, enumerate its space (checked against the
// golden), seed and grow a pool.
func offlineProbes(o *outcome, e *env, queries []workload.Query) error {
	var derived, enumerated, seeded, grown []float64
	templates, allocMB := 0, 0.0
	for _, q := range queries {
		sp := e.rec.open("derive.from_sql", q.ID, 0)
		t0 := time.Now()
		g, err := derive.FromSQL(q.SQL, derive.DefaultOptions())
		derived = append(derived, ms(time.Since(t0)))
		e.rec.end(sp)
		if err != nil {
			return fmt.Errorf("deriving %s: %w", q.ID, err)
		}

		sp = e.rec.open("grammar.enumerate", q.ID, 0)
		a0 := totalAllocMB()
		t0 = time.Now()
		got := checkSpace(o, e, q.ID, g)
		d := ms(time.Since(t0))
		allocMB += totalAllocMB() - a0
		e.rec.end(sp)
		templates += got.Templates
		if q.ID == "Q19" {
			o.layer["grammar.enumerate_ms.Q19"] = d
		} else {
			enumerated = append(enumerated, d)
		}

		pl, err := pool.New(g, pool.Options{Seed: e.seed})
		if err != nil {
			return fmt.Errorf("pool for %s: %w", q.ID, err)
		}
		sp = e.rec.open("pool.seed", q.ID, 0)
		t0 = time.Now()
		_, err = pl.SeedRandom(spaceSeedRandom)
		seeded = append(seeded, ms(time.Since(t0)))
		e.rec.end(sp)
		if err != nil {
			return fmt.Errorf("seeding %s: %w", q.ID, err)
		}
		sp = e.rec.open("pool.grow", q.ID, 0)
		t0 = time.Now()
		pl.Grow(spaceGrow)
		grown = append(grown, ms(time.Since(t0)))
		e.rec.end(sp)
	}
	o.layer["derive.from_sql_ms"] = sum(derived)
	o.layer["grammar.enumerate_ms"] = sum(enumerated)
	o.layer["grammar.enumerate_alloc_mb"] = allocMB
	o.layer["grammar.templates"] = float64(templates)
	o.layer["pool.seed_ms"] = sum(seeded)
	o.layer["pool.grow_ms"] = sum(grown)
	return nil
}
