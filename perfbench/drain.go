package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sqalpel/internal/core"
	"sqalpel/internal/datagen"
	"sqalpel/internal/driver"
	"sqalpel/internal/engine"
	"sqalpel/internal/metrics"
	"sqalpel/internal/repository"
	"sqalpel/internal/workload"
)

// drainSF is the TPC-H instance the drain's engines run on: tiny, so a
// task's engine time is short and the platform layers dominate.
const drainSF = 0.0002

// The drain's driver settings and release pair. Every task runs drainRuns
// times on one of drainWorkers workers; the analyst reads are issued each
// time another drainReadEvery tasks have been acknowledged, which makes
// over a hundred reads in a drain.
const (
	drainWorkers   = 2
	drainBatch     = 8
	drainRuns      = 3
	drainReadEvery = 240
	drainPlatform  = "laptop"
)

var drainReleases = []string{"vektor-1.0", "vektor-2.0"}

// drainExperiment is one experiment of the drain project and the size of
// the random pool it is seeded with.
type drainExperiment struct {
	title   string
	sql     string
	grammar string
	seed    int
}

// drainExperiments are the Figure-1 nation grammar and every TPC-H baseline
// but Q19, whose derivation alone takes seconds. Together the pools hold
// about 4,300 distinct queries, more than plan.DefaultCacheEntries, so the
// plan cache overflows; the small spaces are taken whole.
func drainExperiments() []drainExperiment {
	sizes := map[string]int{"Q1": 800, "Q2": 800, "Q7": 400, "Q12": 400, "Q18": 500,
		"Q3": 200, "Q10": 200, "Q16": 200, "Q21": 200}
	exps := []drainExperiment{{title: "nation", grammar: workload.NationSampleGrammar, seed: 200}}
	for _, q := range workload.TPCH() {
		if q.ID == "Q19" {
			continue
		}
		n, ok := sizes[q.ID]
		if !ok {
			n = 200
		}
		exps = append(exps, drainExperiment{title: q.ID, sql: q.SQL, seed: n})
	}
	return exps
}

// drainFixture is the set-up of the drain: the data, the registry whose
// plan cache both releases share, and the platform with every experiment
// created.
type drainFixture struct {
	db    *engine.Database
	reg   *engine.Registry
	p     *platform
	exps  []int // experiment ids in drain order
	total int   // queries over all experiments
}

// setupDrain starts the platform and creates the experiments. The platform
// seeds an experiment's pool from its project id, so the workload seed
// decides how many other projects precede the drain's project; the pools
// are then other random draws from the same grammars.
func setupDrain(e *env, n int, obs *observer) (*drainFixture, func(), error) {
	f := &drainFixture{
		db:  datagen.TPCH(datagen.TPCHOptions{ScaleFactor: drainSF, Seed: dataSeed}),
		reg: engine.NewRegistry(),
	}
	p, err := startPlatform(filepath.Join(e.dir, fmt.Sprintf("drain-store-%d", n)), obs)
	if err != nil {
		return nil, nil, err
	}
	f.p = p
	for i := 0; i < int(uint64(e.seed)%16); i++ {
		if err := p.newProject(fmt.Sprintf("other-%d", i)); err != nil {
			p.close()
			return nil, nil, err
		}
	}
	for _, x := range drainExperiments() {
		var out struct {
			ID    int `json:"experiment_id"`
			Count int `json:"query_count"`
		}
		body := map[string]any{"title": x.title, "baseline_sql": x.sql, "grammar_text": x.grammar, "seed_random": x.seed}
		if err := p.call("POST", fmt.Sprintf("/api/projects/%d/experiments", p.project), body, http.StatusCreated, &out); err != nil {
			p.close()
			return nil, nil, fmt.Errorf("creating %s: %w", x.title, err)
		}
		f.exps = append(f.exps, out.ID)
		f.total += out.Count
	}
	// Import the typed columns the releases read, as a warm daemon has.
	for _, key := range drainReleases {
		for _, t := range f.db.Tables() {
			if _, err := f.reg.Get(key).Execute(f.db, "SELECT count(*) FROM "+t.Name, engine.ExecOptions{}); err != nil {
				p.close()
				return nil, nil, fmt.Errorf("warming %s: %w", key, err)
			}
		}
	}
	return f, p.close, nil
}

// drainState is what the drain loop observed.
type drainState struct {
	acked   int
	reads   int
	lost    int
	known   int // results that fail with a defect drainKnownFailures records
	results []resultRow
}

type resultRow struct {
	ExperimentID int    `json:"experiment_id"`
	QueryID      int    `json:"query_id"`
	DBMSKey      string `json:"dbms_key"`
	Error        string `json:"error"`
}

// drain leases and completes every task of every experiment through the
// driver, first on one release and then on the other, issuing the analyst
// reads each time another drainReadEvery tasks are acknowledged. The work
// is fixed: the same tasks, reads and growth of the results whatever the
// speed of the program.
func drain(o *outcome, e *env, f *drainFixture, wrap func(string, metrics.Target) metrics.Target) (*drainState, error) {
	st := &drainState{}
	for _, dbms := range drainReleases {
		var target metrics.Target = &core.EngineTarget{Engine: f.reg.Get(dbms), DB: f.db}
		if wrap != nil {
			target = wrap(dbms, target)
		}
		for _, exp := range f.exps {
			client, err := driver.NewClient(driver.Config{
				Server: f.p.ts.URL, Key: f.p.key, DBMS: dbms, Platform: drainPlatform, Experiment: exp,
				Runs: drainRuns, Timeout: time.Minute, Workers: drainWorkers, Batch: drainBatch,
			})
			if err != nil {
				return nil, err
			}
			for {
				want := drainReadEvery - st.acked%drainReadEvery
				n, err := client.RunAll(target, want)
				if err != nil {
					return nil, fmt.Errorf("draining experiment %d on %s: %w", exp, dbms, err)
				}
				st.acked += n
				if st.acked%drainReadEvery == 0 && n > 0 {
					if err := analystReads(o, e, f, st); err != nil {
						return nil, err
					}
				}
				if n < want {
					break
				}
			}
		}
	}
	return st, analystReads(o, e, f, st)
}

// analystReads lists the results as JSON and as CSV and asks for the
// speedup of the second release over the first, the comparison of the
// paper's Figure 3, checking that each read sees every acknowledged task.
func analystReads(o *outcome, e *env, f *drainFixture, st *drainState) error {
	base := fmt.Sprintf("/api/projects/%d", f.p.project)
	var rows []resultRow
	status, err := get(f.p.ts.URL+base+"/results", func(r io.Reader) error { return json.NewDecoder(r).Decode(&rows) })
	if err != nil {
		return err
	}
	o.check(status == http.StatusOK && len(rows) == st.acked, e.log, "drain: results: status %d, %d rows, want %d", status, len(rows), st.acked)
	st.results = rows

	var records int
	status, err = get(f.p.ts.URL+base+"/results.csv", func(r io.Reader) error {
		all, err := csv.NewReader(r).ReadAll()
		records = len(all)
		return err
	})
	if err != nil {
		return err
	}
	o.check(status == http.StatusOK && records == st.acked+1, e.log, "drain: results.csv: status %d, %d records, want %d", status, records, st.acked+1)

	q := url.Values{"base": {drainReleases[0] + "@" + drainPlatform}, "other": {drainReleases[1] + "@" + drainPlatform}}
	var speedup struct{ Points []json.RawMessage }
	status, err = get(f.p.ts.URL+base+"/analytics/speedup?"+q.Encode(), func(r io.Reader) error { return json.NewDecoder(r).Decode(&speedup) })
	if err != nil {
		return err
	}
	o.check(status == http.StatusOK && len(speedup.Points) <= st.acked, e.log, "drain: speedup: status %d, %d points", status, len(speedup.Points))
	st.reads += 3
	return nil
}

// get reads a URL through http.DefaultClient, handing the body to decode.
func get(u string, decode func(io.Reader) error) (int, error) {
	resp, err := http.Get(u)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	if err := decode(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("GET %s: %w", u, err)
	}
	return resp.StatusCode, nil
}

// checkDrain verifies the final results: every query of every experiment
// has exactly one result on each release, and no result carries an error
// other than the known defect drainKnownFailures records, which is
// counted apart.
func checkDrain(o *outcome, e *env, f *drainFixture, st *drainState) {
	proj := f.p.store.Project(f.p.project)
	seen := map[string]int{}
	for _, r := range st.results {
		key := fmt.Sprintf("%d/%d@%s", r.ExperimentID, r.QueryID, r.DBMSKey)
		seen[key]++
		ok := r.Error == ""
		exp := proj.Experiment(r.ExperimentID)
		if q := exp.Query(r.QueryID); !ok && q != nil && knownFailure(exp.Title, q.SQL, r.Error) {
			ok = true
			st.known++
		}
		o.check(ok, e.log, "drain: %s (%s) failed: %s", key, exp.Title, r.Error)
	}
	for k, n := range seen {
		o.check(n == 1, e.log, "drain: %s has %d results", k, n)
	}
	for _, dbms := range drainReleases {
		for _, id := range f.exps {
			for _, q := range proj.Experiment(id).Queries {
				_, ok := seen[fmt.Sprintf("%d/%d@%s", id, q.ID, dbms)]
				o.check(ok, e.log, "drain: experiment %d query %d has no result on %s", id, q.ID, dbms)
			}
		}
	}
	for i := 0; i < st.lost; i++ {
		o.check(false, e.log, "drain: a lease was lost")
	}
	if st.known > 0 {
		fmt.Fprintf(e.log, "drain: %d results fail with the known defect of goldens.go (ORDER BY names a dropped projection alias)\n", st.known)
	}
}

// knownFailure reports whether a failed query of the baseline fails with
// the defect drainKnownFailures records: the ORDER BY names an alias the
// query's projection no longer defines.
func knownFailure(baseline, sql, errText string) bool {
	alias, ok := drainKnownFailures[baseline]
	return ok && strings.Contains(errText, "unknown column "+alias) && !strings.Contains(sql, " AS "+alias)
}

func runDrain(e *env) (*outcome, error) {
	o := newOutcome()
	obs := newObserver(e.rec)
	defer obs.install()()
	n := 0
	f, setupS, err := timeSetup(setupRepeats(e), func() (*drainFixture, func(), error) {
		n++
		return setupDrain(e, n, obs)
	})
	if err != nil {
		return nil, err
	}
	defer f.p.close()
	o.meta["scale_factor"] = drainSF
	o.meta["queries"] = f.total
	o.meta["workers"] = drainWorkers
	o.meta["batch"] = drainBatch
	o.meta["runs"] = drainRuns
	obs.take()

	if e.traced {
		return o, drainTraced(o, e, f, obs)
	}
	a0 := totalAllocMB()
	t0 := time.Now()
	st, err := drain(o, e, f, nil)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	alloc := totalAllocMB() - a0
	client, _, status := obs.take()
	st.lost = status["POST /api/task/complete"][http.StatusConflict]
	checkDrain(o, e, f, st)
	complete := client["POST /api/task/complete"]
	o.e2e["setup_s"] = setupS
	o.e2e["ops_per_s"] = float64(st.acked) / wall.Seconds()
	o.e2e["op_p50_ms"] = median(complete)
	o.e2e["op_geomean_ms"] = geomean(complete)
	o.e2e["alloc_mb_per_op"] = alloc / float64(max(st.acked, 1))
	o.samples["tasks"] = st.acked
	o.samples["completes"] = len(complete)
	o.samples["reads"] = st.reads
	o.samples["known_failures"] = st.known
	return o, nil
}

// tracedTarget times each repetition of a task on the engine, as the
// driver's worker calls it, as a span of the task that leased the query.
type tracedTarget struct {
	inner metrics.ContextTarget
	dbms  string
	obs   *observer

	mu   sync.Mutex
	busy time.Duration
}

func (t *tracedTarget) Run(query string) (int, map[string]string, error) {
	return t.RunContext(context.Background(), query)
}

func (t *tracedTarget) RunContext(ctx context.Context, query string) (int, map[string]string, error) {
	sp := t.obs.rec.open("engine", t.obs.taskOf(t.dbms, query), 0)
	t0 := time.Now()
	rows, extra, err := t.inner.RunContext(ctx, query)
	d := time.Since(t0)
	t.obs.rec.end(sp)
	t.mu.Lock()
	t.busy += d
	t.mu.Unlock()
	return rows, extra, err
}

// drainTraced drains with every request, engine call and store call
// timed, then replays the drain's lease/complete sequence on bare stores.
func drainTraced(o *outcome, e *env, f *drainFixture, obs *observer) error {
	obs.trackTasks = true
	var targets []*tracedTarget
	wrap := func(dbms string, t metrics.Target) metrics.Target {
		tt := &tracedTarget{inner: t.(metrics.ContextTarget), dbms: dbms, obs: obs}
		targets = append(targets, tt)
		return tt
	}
	h0, m0 := f.reg.PlanCache().Stats()
	t0 := time.Now()
	st, err := drain(o, e, f, wrap)
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	h1, m1 := f.reg.PlanCache().Stats()
	client, server, status := obs.take()
	st.lost = status["POST /api/task/complete"][http.StatusConflict]
	checkDrain(o, e, f, st)

	var busy time.Duration
	for _, t := range targets {
		busy += t.busy
	}
	o.layer["plan.cache_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	o.layer["driver.engine_ms"] = ms(busy) / float64(max(st.acked, 1))
	o.layer["driver.platform_share"] = 1 - busy.Seconds()/(drainWorkers*wall.Seconds())
	o.layer["driver.lost_leases"] = float64(st.lost)
	o.layer["drain.known_failures"] = float64(st.known)

	reads := []string{"GET /api/projects/*/results", "GET /api/projects/*/results.csv", "GET /api/projects/*/analytics/speedup"}
	var clientReads, serverReads []float64
	for _, r := range reads {
		clientReads = append(clientReads, client[r]...)
		serverReads = append(serverReads, server[r]...)
	}
	o.layer["drain.browse_p50_ms"] = median(clientReads)
	o.layer["server.lease_p50_ms"] = median(server["POST /api/task/request"])
	o.layer["server.complete_p50_ms"] = median(server["POST /api/task/complete"])
	o.layer["server.complete_p99_ms"] = percentile(server["POST /api/task/complete"], 99)
	o.layer["server.results_p50_ms"] = median(server[reads[0]])
	o.layer["server.results_csv_p50_ms"] = median(server[reads[1]])
	o.layer["server.speedup_p50_ms"] = median(server[reads[2]])
	o.layer["server.browse_p90_ms"] = percentile(serverReads, 90)
	o.layer["http.overhead_ms"] = median(completeSelfMS(e.rec.snapshot()))
	o.samples["tasks"] = st.acked
	o.samples["completes"] = len(server["POST /api/task/complete"])
	o.samples["reads"] = len(serverReads)
	o.meta["tail_percentiles"] = map[string]float64{
		"server.complete": tailPercentile(len(server["POST /api/task/complete"])),
		"server.browse":   tailPercentile(len(serverReads)),
	}

	frontEndProbes(o, e, f.db)
	if err := importProbe(o, e, f.db); err != nil {
		return err
	}
	return replayStores(o, e, f, st)
}

// replayStores repeats the drain's lease/complete sequence directly on
// the repository: on a durable store (every mutation fsynced) and on an
// in-memory one, which isolates the write-ahead log's share.
func replayStores(o *outcome, e *env, f *drainFixture, st *drainState) error {
	durable, err := repository.Open(filepath.Join(e.dir, "replay"), 0)
	if err != nil {
		return err
	}
	defer durable.Close()
	lease, complete, err := replay(e, durable, f, st)
	if err != nil {
		return err
	}
	_, completeMem, err := replay(e, repository.NewStore(), f, st)
	if err != nil {
		return err
	}
	o.layer["repository.lease_us"] = median(lease)
	o.layer["repository.complete_us"] = median(complete)
	o.layer["repository.complete_mem_us"] = median(completeMem)
	o.layer["repository.wal_us"] = median(complete) - median(completeMem)
	tenth := max(len(lease)/10, 1)
	o.layer["repository.lease_growth"] = ratio(mean(lease[len(lease)-tenth:]), mean(lease[:tenth]))
	o.samples["repository.leases"] = len(lease)
	o.samples["repository.completes"] = len(complete)
	return nil
}

// replay creates the drain's experiments in store and leases and completes
// as many tasks of each, in the drain's order, as the drain acknowledged.
func replay(e *env, store *repository.Store, f *drainFixture, st *drainState) (lease, complete []float64, err error) {
	const owner = "bench"
	if _, err := store.RegisterUser(owner, "bench@example.org"); err != nil {
		return nil, nil, err
	}
	proj, err := store.CreateProject(owner, "replay", "", true)
	if err != nil {
		return nil, nil, err
	}
	key := proj.Contributors[0].Key
	src := f.p.store.Project(f.p.project)
	ids := map[int]int{}
	for _, id := range f.exps {
		x := src.Experiment(id)
		exp, err := store.AddExperiment(owner, proj.ID, x.Title, x.BaselineSQL, x.GrammarText)
		if err != nil {
			return nil, nil, err
		}
		if err := store.ReplaceQueries(owner, proj.ID, exp.ID, x.Queries); err != nil {
			return nil, nil, err
		}
		ids[id] = exp.ID
	}
	left := st.acked
	for _, dbms := range drainReleases {
		for _, id := range f.exps {
			for left > 0 {
				sp := e.rec.open("repository.lease", dbms, 0)
				t0 := time.Now()
				tasks, err := store.RequestTasks(key, ids[id], dbms, drainPlatform, min(drainBatch, left))
				lease = append(lease, us(time.Since(t0)))
				e.rec.end(sp)
				if err != nil {
					return nil, nil, err
				}
				if len(tasks) == 0 {
					break
				}
				for _, t := range tasks {
					sp := e.rec.open("repository.complete", fmt.Sprintf("task:%d", t.ID), 0)
					t0 := time.Now()
					_, err := store.CompleteTask(t.ID, key, []float64{0.001, 0.001, 0.001}, "", nil)
					complete = append(complete, us(time.Since(t0)))
					e.rec.end(sp)
					if err != nil {
						return nil, nil, err
					}
					left--
				}
			}
		}
	}
	return lease, complete, nil
}

// taskOf names the task that leased the query for the release, for
// grouping the engine spans of one task; only tracked in traced runs.
func (o *observer) taskOf(dbms, query string) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if id, ok := o.tasks[dbms+"\x00"+query]; ok {
		return fmt.Sprintf("task:%d", id)
	}
	return "task:?"
}

// noteLease records the task ids of a lease response so engine spans can
// be grouped by task.
func (o *observer) noteLease(body []byte) {
	var resp struct {
		Tasks []repository.Task `json:"tasks"`
	}
	if json.Unmarshal(body, &resp) != nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, t := range resp.Tasks {
		o.tasks[t.DBMSKey+"\x00"+t.SQL] = t.ID
	}
}

// completeSelfMS returns, for every completion the driver sent, the client
// span's self time: the round trip minus the server's handling of it.
func completeSelfMS(spans []span) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == "http.client" && strings.HasPrefix(s.Group, "task:") {
			out = append(out, ms(self[s.ID]))
		}
	}
	return out
}
