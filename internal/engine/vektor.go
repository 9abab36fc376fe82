package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlsem"
	"sqalpel/internal/vexec"
)

// vektorEngine adapts internal/vexec to the Engine interface. It is the
// third execution paradigm next to the row and column interpreters — the
// batch-vectorized executor ("vektor"), working on typed unboxed vectors
// with selection vectors — and, with fused set, the fourth: the
// data-centric compiled engine ("fusil"), whose base-table scans run their
// pushed-down conjuncts as one compiled closure loop per row instead of
// vectorized selection passes, everything above the scans being vexec's
// operators. The adapter owns the column-import shim — engine.Database
// stores boxed []Value columns, which are decoded into typed vectors once
// per table data version and cached — and routes to the interpreter from
// the plan's precomputed Vectorizable verdict; only data-dependent value
// shapes (mixed-kind columns, eager-evaluation type errors) still fall
// back at runtime. The embedded column interpreter is that fallback; it
// also carries the engine's name, version, dialect and plan cache.
type vektorEngine struct {
	baseEngine
	batchSize int
	fused     bool
	typed     *typedCache
}

// typedTableEntry pins the typed decoding of one table to the data version
// it was built from; any mutation (append or in-place update) bumps the
// version and invalidates the entry. The owning database is recorded so a
// reloaded table (Database.AddTable with a fresh *Table under the same
// name) evicts only its own predecessors, never a same-named table of
// another database served by the same engine. Entries are installed as
// placeholders before the decode runs: ready closes once vt/err are set,
// so concurrent importers of one version wait for the single build instead
// of decoding (and dictionary-encoding) the columns again.
type typedTableEntry struct {
	version uint64
	vt      *vexec.Table
	db      *Database
	ready   chan struct{}
	err     error
}

// VektorOptions tune the vectorized engine variant.
type VektorOptions struct {
	// Version overrides the reported version string.
	Version string
	// BatchSize overrides the pipeline batch size (default 1024); the 2.0
	// release quadruples it, trading per-batch overhead against cache
	// residency the way columba 2.0 drops its guard casts.
	BatchSize int
}

// NewVektorEngine returns the batch-vectorized engine ("vektor 1.0"):
// typed columnar vectors, selection-vector filters, batch-at-a-time
// pull-based pipelines of 1024 rows.
func NewVektorEngine() Engine {
	return NewVektorEngineWithOptions(VektorOptions{})
}

// NewVektorEngineWithOptions returns a tuned vectorized engine variant,
// used to compare two releases of the same system.
func NewVektorEngineWithOptions(opts VektorOptions) Engine {
	return newVexecEngine("vektor", opts)
}

// NewFusilEngine returns the compiled engine ("fusil 1.0"): pushed-down
// conjuncts compiled once per query into closures fused into the scan
// loop, with vexec's joins, aggregation, sort and sub-query operators as
// the pipeline breakers.
func NewFusilEngine() Engine {
	e := newVexecEngine("fusil", VektorOptions{})
	e.fused = true
	return e
}

func newVexecEngine(name string, opts VektorOptions) *vektorEngine {
	version := opts.Version
	if version == "" {
		version = "1.0"
	}
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = vexec.DefaultBatchSize
	}
	return &vektorEngine{
		baseEngine: baseEngine{name: name, version: version, dialect: name, mode: ModeColumn, plans: plan.NewCache(0)},
		batchSize:  batchSize,
		typed:      newTypedCache(),
	}
}

// Execute resolves the shared logical plan and routes on its Vectorizable
// verdict: supported statements compile into the vectorized executor,
// everything else goes straight to the column interpreter — consuming the
// same plan, so neither path re-parses or re-analyzes.
func (e *vektorEngine) Execute(db *Database, sql string, opts ExecOptions) (*Result, error) {
	p, err := planFor(e.plans, db, sql)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.name, err)
	}
	if !p.Vectorizable {
		return e.baseEngine.ExecutePlan(db, p, opts)
	}
	vopts := vexec.Options{BatchSize: e.batchSize, MaxJoinRows: opts.MaxJoinRows, Parallelism: opts.Parallelism, Fused: e.fused, Tracer: opts.Tracer}
	if opts.Timeout > 0 {
		vopts.Deadline = time.Now().Add(opts.Timeout)
	}
	res, err := vexec.ExecutePlan(&typedCatalog{cache: e.typed, db: db}, p, vopts)
	if err != nil {
		if errors.Is(err, vexec.ErrUnsupported) {
			// Runtime value shapes outside the typed subset defer to the
			// interpreter, re-using the plan. An aborted vectorized attempt
			// may have recorded partial spans; drop them so the trace
			// reflects the run that actually produced the result.
			opts.Tracer.Reset()
			return e.baseEngine.ExecutePlan(db, p, opts)
		}
		return nil, fmt.Errorf("%s: %w", e.name, err)
	}

	out := &Result{Columns: res.Columns, Stats: res.Stats}
	n := res.NumRows()
	out.Rows = make([][]sqlsem.Value, n)
	for i := 0; i < n; i++ {
		row := make([]sqlsem.Value, len(res.Cols))
		for c, vec := range res.Cols {
			row[c] = vec.At(i)
		}
		out.Rows[i] = row
	}
	return out, nil
}

// typedCache holds the typed decodings of boxed tables; every vexec-backed
// engine owns one instance.
type typedCache struct {
	mu     sync.Mutex
	cache  map[*Table]*typedTableEntry
	builds uint64 // decode passes actually run, for the build-once tests
}

// newTypedCache returns an empty typed-table cache.
func newTypedCache() *typedCache {
	return &typedCache{cache: map[*Table]*typedTableEntry{}}
}

// typedCatalog adapts an engine.Database to the typed-table catalog vexec
// consumes, decoding boxed columns into typed vectors through a per-engine
// cache.
type typedCatalog struct {
	cache *typedCache
	db    *Database
}

// VTable returns the typed form of the named table.
func (c *typedCatalog) VTable(name string) (*vexec.Table, error) {
	t := c.db.Table(name)
	if t == nil {
		return nil, fmt.Errorf("unknown table %q", name)
	}
	return c.cache.typedTable(c.db, t)
}

// typedTable converts a boxed table into typed vectors, caching the result
// keyed by the table's data version — the same invalidation hook the plan
// cache uses — so mutating or reloading a table can never serve stale typed
// columns. Each version is decoded exactly once: the first caller installs
// a placeholder entry and builds outside the lock; concurrent callers of
// the same version block on the entry's ready channel and share the result.
func (tc *typedCache) typedTable(db *Database, t *Table) (*vexec.Table, error) {
	version := t.Version()
	tc.mu.Lock()
	if entry, ok := tc.cache[t]; ok && entry.version == version {
		tc.mu.Unlock()
		<-entry.ready
		return entry.vt, entry.err
	}
	entry := &typedTableEntry{version: version, db: db, ready: make(chan struct{})}
	// Drop superseded entries so a table reloaded via Database.AddTable (a
	// fresh *Table under the same name in the same database) cannot pin its
	// predecessors' typed copies forever; the size cap bounds pathological
	// churn on top. Evicting an in-flight placeholder is harmless: its
	// waiters hold the entry pointer and still receive the build's result.
	for old, oe := range tc.cache {
		if old != t && oe.db == db && strings.EqualFold(old.Name, t.Name) {
			delete(tc.cache, old)
		}
	}
	for old := range tc.cache {
		if len(tc.cache) < maxTypedTables {
			break
		}
		if old == t {
			continue
		}
		delete(tc.cache, old)
	}
	tc.cache[t] = entry
	tc.builds++
	tc.mu.Unlock()

	vt, err := buildTypedTable(t)
	tc.mu.Lock()
	if err != nil {
		// Leave no failed entry behind: the next caller retries the build.
		if tc.cache[t] == entry {
			delete(tc.cache, t)
		}
	} else {
		entry.vt = vt
	}
	entry.err = err
	tc.mu.Unlock()
	close(entry.ready)
	return vt, err
}

// buildTypedTable runs the full typed import of one boxed table: column
// decode, dictionary encoding and zone-map construction (both inside
// vexec.NewTable).
func buildTypedTable(t *Table) (*vexec.Table, error) {
	cols := make([]vexec.TableColumn, len(t.Columns))
	for ci, col := range t.Columns {
		vec, err := typedColumn(t.ColumnValues(ci))
		if err != nil {
			return nil, fmt.Errorf("%w: table %s column %s: %v", vexec.ErrUnsupported, t.Name, col.Name, err)
		}
		cols[ci] = vexec.TableColumn{Name: col.Name, Vec: vec}
	}
	return vexec.NewTable(t.Name, cols...), nil
}

// maxTypedTables bounds the typed-column import cache; workloads hold at
// most a dozen or so tables, so the cap only matters under churn.
const maxTypedTables = 64

// typedColumn decodes one boxed column into a typed vector through vexec's
// builder, so boxed-storage decoding and the executor's own kind promotion
// (including the per-row int/float duality a float column may legally
// carry) share one algorithm. All-NULL columns become KindNull vectors,
// which behave identically to typed all-NULL vectors. Columns mixing
// incompatible kinds report ErrUnsupported, routing such databases to the
// interpreter.
func typedColumn(vals []sqlsem.Value) (*vexec.Vector, error) {
	b := vexec.NewBuilder(len(vals))
	for _, v := range vals {
		b.Append(v)
	}
	return b.Finalize()
}
