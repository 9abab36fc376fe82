package plan

import (
	"math"
	"strings"
	"sync"
	"testing"

	"sqalpel/internal/sqlparser"
)

// fakeCatalog is a minimal schema provider for the planner.
type fakeCatalog map[string][]string

func (c fakeCatalog) TableColumns(name string) ([]string, bool) {
	cols, ok := c[strings.ToLower(name)]
	return cols, ok
}

var testCat = fakeCatalog{
	"orders":   {"o_orderkey", "o_custkey", "o_total"},
	"customer": {"c_custkey", "c_name", "c_nation"},
	"lineitem": {"l_orderkey", "l_qty", "l_price"},
}

func mustBuild(t *testing.T, sql string) *Plan {
	t.Helper()
	p, err := Build(testCat, sql)
	if err != nil {
		t.Fatalf("Build(%q): %v", sql, err)
	}
	return p
}

func TestConjunctClassification(t *testing.T) {
	p := mustBuild(t, `SELECT c_name, o_total FROM customer, orders
		WHERE c_custkey = o_custkey AND c_nation = 'DE' AND 1 = 1 AND c_name < o_total`)
	sp := p.Root
	var joins, pushdowns, residuals int
	for _, c := range sp.Conjuncts {
		switch c.Class {
		case ClassJoin:
			joins++
		case ClassPushdown:
			pushdowns++
		case ClassResidual:
			residuals++
		}
	}
	if joins != 1 || pushdowns != 2 || residuals != 1 {
		t.Errorf("classes = %d join / %d pushdown / %d residual, want 1/2/1", joins, pushdowns, residuals)
	}
	if len(sp.JoinSteps) != 1 || sp.JoinSteps[0].Cross || len(sp.JoinSteps[0].LeftKeys) != 1 {
		t.Errorf("join steps = %+v, want one hash-join step with one key", sp.JoinSteps)
	}
	// The interpreters see every non-join conjunct as residual; the
	// vectorized executor pushes the single-table ones below the join.
	if len(sp.Residual) != 3 {
		t.Errorf("interpreter residual = %d conjuncts, want 3", len(sp.Residual))
	}
	if len(sp.VexecPushdown[0]) != 2 || len(sp.VexecResidual) != 1 {
		t.Errorf("vexec split = %d pushed / %d residual, want 2/1", len(sp.VexecPushdown[0]), len(sp.VexecResidual))
	}
}

func TestCrossJoinStepWhenNoEdge(t *testing.T) {
	p := mustBuild(t, "SELECT c_name FROM customer, lineitem WHERE c_nation = 'DE'")
	steps := p.Root.JoinSteps
	if len(steps) != 1 || !steps[0].Cross {
		t.Errorf("steps = %+v, want one cross step", steps)
	}
}

func TestVectorizableVerdict(t *testing.T) {
	cases := []struct {
		sql    string
		ok     bool
		reason string
	}{
		{"SELECT sum(o_total) FROM orders", true, ""},
		{"SELECT x FROM (SELECT o_total AS x FROM orders) d", true, ""},
		{"SELECT c_name FROM customer LEFT JOIN orders ON c_custkey = o_custkey", true, ""},
		{"SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)", true, ""},
		{"SELECT c_name FROM customer WHERE EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)", true, ""},
		{"SELECT c_name FROM customer WHERE c_custkey > (SELECT sum(o_total) FROM orders WHERE o_custkey = c_custkey)", true, ""},
		{"SELECT o_total FROM orders UNION SELECT o_total FROM orders", false, "set operations"},
		{"SELECT (SELECT sum(o_total) FROM orders WHERE o_custkey = c_custkey) FROM customer", false,
			"correlated sub-queries outside WHERE"},
		{"SELECT c_name FROM customer WHERE EXISTS (SELECT 1 FROM orders WHERE o_custkey > c_custkey)", false,
			"correlated sub-queries without an equi-join correlation predicate"},
	}
	for _, tc := range cases {
		p := mustBuild(t, tc.sql)
		if p.Vectorizable != tc.ok {
			t.Errorf("%q: vectorizable = %v, want %v", tc.sql, p.Vectorizable, tc.ok)
		}
		if !tc.ok && p.NotVectorizableReason != tc.reason {
			t.Errorf("%q: reason = %q, want %q", tc.sql, p.NotVectorizableReason, tc.reason)
		}
	}
}

func TestSubqueryRegistrationAndCorrelation(t *testing.T) {
	p := mustBuild(t, `SELECT c_name FROM customer
		WHERE c_custkey IN (SELECT o_custkey FROM orders)
		AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = c_custkey)`)
	var inStmt, existsStmt *sqlparser.SelectStatement
	sqlparser.WalkExprs(p.Root.Stmt.Where, func(x sqlparser.Expr) bool {
		switch v := x.(type) {
		case *sqlparser.InExpr:
			inStmt = v.Subquery
		case *sqlparser.ExistsExpr:
			existsStmt = v.Subquery
		}
		return true
	})
	if inStmt == nil || existsStmt == nil {
		t.Fatal("sub-query statements not found in AST")
	}
	if p.Sub(inStmt) == nil || p.Sub(existsStmt) == nil {
		t.Fatal("sub-queries were not planned")
	}
	if p.Correlated(inStmt) {
		t.Error("uncorrelated IN sub-query classified as correlated")
	}
	if !p.Correlated(existsStmt) {
		t.Error("correlated EXISTS sub-query classified as uncorrelated")
	}
}

func TestRightJoinNormalizesToLeft(t *testing.T) {
	p := mustBuild(t, "SELECT c_name FROM customer RIGHT JOIN orders ON c_custkey = o_custkey")
	in := p.Root.From[0]
	if in.Join == nil || in.Join.Kind != "LEFT" {
		t.Fatalf("join = %+v, want normalized LEFT", in.Join)
	}
	// After the swap, orders is the preserved (left) side.
	if in.Join.Left.Table != "orders" {
		t.Errorf("left side = %q, want orders", in.Join.Left.Table)
	}
	if len(in.Join.LeftKeys) != 1 {
		t.Errorf("equi keys = %d, want 1", len(in.Join.LeftKeys))
	}
}

func TestNeededColumnsAndEarlyLimit(t *testing.T) {
	p := mustBuild(t, "SELECT c_name FROM customer WHERE c_nation = 'DE' LIMIT 5 OFFSET 2")
	sp := p.Root
	need := sp.Needed["customer"]
	if !need["c_name"] || !need["c_nation"] || need["c_custkey"] {
		t.Errorf("needed columns = %v, want c_name and c_nation only", need)
	}
	if sp.EarlyLimit != 7 {
		t.Errorf("early limit = %d, want 7 (limit+offset)", sp.EarlyLimit)
	}
	grouped := mustBuild(t, "SELECT count(c_name) FROM customer LIMIT 5")
	if grouped.Root.EarlyLimit != 0 {
		t.Error("aggregate query must not early-exit")
	}
	huge := mustBuild(t, "SELECT c_name FROM customer LIMIT 9223372036854775807 OFFSET 1")
	if huge.Root.EarlyLimit != math.MaxInt {
		t.Errorf("early limit = %d, want it saturated at MaxInt", huge.Root.EarlyLimit)
	}
}

// TestWindowSaturates pins the one LIMIT/OFFSET window: clamped to the
// rows there are, and no overflow when LIMIT+OFFSET exceeds MaxInt64.
func TestWindowSaturates(t *testing.T) {
	for _, tc := range []struct {
		clause string
		n      int
		lo, hi int
	}{
		{"", 8, 0, 8},
		{"LIMIT 3", 8, 0, 3},
		{"LIMIT 0", 8, 0, 0},
		{"OFFSET 6", 8, 6, 8},
		{"LIMIT 5 OFFSET 2", 8, 2, 7},
		{"LIMIT 5 OFFSET 6", 8, 6, 8},
		{"LIMIT 5 OFFSET 20", 8, 8, 8},
		{"LIMIT 9223372036854775807 OFFSET 1", 8, 1, 8},
		{"LIMIT 5 OFFSET 9223372036854775807", 8, 8, 8},
		{"LIMIT 9223372036854775807 OFFSET 9223372036854775807", 8, 8, 8},
	} {
		sp := mustBuild(t, "SELECT c_name FROM customer "+tc.clause).Root
		if lo, hi := sp.Window(tc.n); lo != tc.lo || hi != tc.hi {
			t.Errorf("%q over %d rows: window [%d, %d), want [%d, %d)", tc.clause, tc.n, lo, hi, tc.lo, tc.hi)
		}
	}
}

// TestOrderKeyResolution pins which ORDER BY items sort by an output column
// (aliases of computed items and in-range ordinals, stars counted first)
// and which the executors evaluate.
func TestOrderKeyResolution(t *testing.T) {
	sp := mustBuild(t, `SELECT *, o_total * 2 AS dbl, o_custkey FROM orders
		ORDER BY dbl DESC, 4, o_custkey, orders.o_total, 9, o_total + 1, 0`).Root
	want := []int{3, 3, 4, -1, -1, -1, -1}
	if len(sp.OrderBy) != len(want) {
		t.Fatalf("order keys = %d, want %d", len(sp.OrderBy), len(want))
	}
	for i, w := range want {
		if sp.OrderBy[i].Col != w {
			t.Errorf("ORDER BY item %d (%s) sorts by column %d, want %d", i, sp.OrderBy[i].Expr.SQL(), sp.OrderBy[i].Col, w)
		}
	}
	if !sp.OrderBy[0].Desc || sp.OrderBy[1].Desc {
		t.Error("DESC flags lost")
	}
	if got := len(sp.Items); got != 3 || !sp.Items[0].Star || sp.Items[1].Name != "dbl" || sp.Items[2].Name != "o_custkey" {
		t.Errorf("items = %+v", sp.Items)
	}
}

// TestAggregateCallsResolved pins the validated, de-duplicated aggregate
// calls and the statements rejected at plan time.
func TestAggregateCallsResolved(t *testing.T) {
	sp := mustBuild(t, `SELECT o_custkey, sum(o_total), count(*) FROM orders GROUP BY o_custkey
		HAVING sum(o_total) > 1 ORDER BY max(o_total), count(*)`).Root
	var got []string
	for _, f := range sp.Aggregates {
		got = append(got, f.SQL())
	}
	if strings.Join(got, ", ") != "sum(o_total), count(*), max(o_total)" {
		t.Errorf("aggregates = %v", got)
	}
	for sql, want := range map[string]string{
		"SELECT sum(*) FROM orders WHERE o_total < 0":                               "sum(*) is not valid",
		"SELECT o_custkey, count(*) FROM orders GROUP BY o_custkey ORDER BY max(*)": "max(*) is not valid",
		"SELECT sum(o_total, o_custkey) FROM orders":                                "aggregate sum expects exactly 1 argument",
		"SELECT *, count(*) FROM orders":                                            "SELECT * is not supported with GROUP BY or aggregates",
		"SELECT o_custkey FROM orders ORDER BY max(o_total)":                        "aggregate max used outside GROUP BY context",
		"SELECT a FROM t UNION SELECT sum(*) FROM orders":                           "sum(*) is not valid",
	} {
		if _, err := Build(testCat, sql); err == nil || err.Error() != want {
			t.Errorf("Build(%q) error = %v, want %q", sql, err, want)
		}
	}
}

func TestConstantFolding(t *testing.T) {
	fold := func(sql string) string {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return FoldExpr(stmt.Where).SQL()
	}
	got := fold("SELECT 1 FROM orders WHERE o_total < 10 + 5")
	if !strings.Contains(got, "15") || strings.Contains(got, "10") {
		t.Errorf("folded predicate = %q, want the literal 15", got)
	}
	// Floats and non-arithmetic operators stay untouched.
	if got := fold("SELECT 1 FROM orders WHERE o_total < 1.5 + 2"); strings.Contains(got, "3.5") {
		t.Errorf("float arithmetic must not fold, got %q", got)
	}
	// Folding must not lose the sub-expression's statement identity.
	p := mustBuild(t, "SELECT 1 FROM orders WHERE o_total < 2 * 3 AND o_custkey IN (SELECT c_custkey FROM customer)")
	subs := sqlparser.Subqueries(p.Root.Residual[len(p.Root.Residual)-1])
	if len(subs) != 1 || p.Sub(subs[0]) == nil {
		t.Error("sub-query behind a folded conjunct lost its plan")
	}
}

func TestOutSchemaStarExpansion(t *testing.T) {
	p := mustBuild(t, "SELECT *, o_total * 2 AS dbl FROM orders")
	want := []ColumnMeta{
		{Table: "orders", Name: "o_orderkey"},
		{Table: "orders", Name: "o_custkey"},
		{Table: "orders", Name: "o_total"},
		{Table: "", Name: "dbl"},
	}
	got := p.Root.OutSchema
	if len(got) != len(want) {
		t.Fatalf("out schema = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out schema[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Build(testCat, "SELEC nonsense")
	if err == nil || !strings.Contains(err.Error(), "parse error") {
		t.Errorf("err = %v, want a parse error", err)
	}
}

func TestCacheHitMissAndVersionInvalidation(t *testing.T) {
	c := NewCache(0)
	builds := 0
	build := func() (*Plan, error) {
		builds++
		return Build(testCat, "SELECT o_total FROM orders")
	}
	id := &struct{}{}
	for i := 0; i < 3; i++ {
		if _, err := c.GetOrBuild(Key(id, 1, "SELECT o_total FROM orders"), build); err != nil {
			t.Fatal(err)
		}
	}
	// Whitespace variants share the normalized key.
	if _, err := c.GetOrBuild(Key(id, 1, "  SELECT   o_total FROM orders ;"), build); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Errorf("builds = %d, want 1", builds)
	}
	// A version bump invalidates.
	if _, err := c.GetOrBuild(Key(id, 2, "SELECT o_total FROM orders"), build); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Errorf("builds after version bump = %d, want 2", builds)
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 3/2", hits, misses)
	}
}

func TestCacheDropCatalog(t *testing.T) {
	c := NewCache(0)
	// Non-zero-size allocations: &struct{}{} values may share one address.
	a, b := new(int), new(int)
	build := func() (*Plan, error) { return Build(testCat, "SELECT o_total FROM orders") }
	for _, id := range []any{a, b} {
		if _, err := c.GetOrBuild(Key(id, 1, "SELECT o_total FROM orders"), build); err != nil {
			t.Fatal(err)
		}
	}
	c.DropCatalog(a)
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries after DropCatalog, want 1", c.Len())
	}
}

func TestCacheCapEviction(t *testing.T) {
	c := NewCache(4)
	for i := 0; i < 32; i++ {
		_, _ = c.GetOrBuild(Key(nil, uint64(i), "SELECT o_total FROM orders"), func() (*Plan, error) {
			return Build(testCat, "SELECT o_total FROM orders")
		})
	}
	if c.Len() > 4 {
		t.Errorf("cache grew to %d entries past its cap of 4", c.Len())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sql := "SELECT o_total FROM orders"
				if (w+i)%2 == 0 {
					sql = "SELECT c_name FROM customer"
				}
				if _, err := c.GetOrBuild(Key(nil, 1, sql), func() (*Plan, error) {
					return Build(testCat, sql)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 2 {
		t.Errorf("cache holds %d plans, want 2", c.Len())
	}
}
