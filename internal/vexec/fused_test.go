package vexec

import (
	"errors"
	"fmt"
	"testing"
)

// TestFusedMatchesVectorized holds the fused scan loop to the vectorized
// filter: every query must return bit-identical results and counters with
// Fused on and off — except FilterPasses, which the fused loop does not
// make for pushed-down conjuncts — at one and eight morsel workers. The
// queries cover the closure compiler's repertoire over a table with NULLs
// and over an empty one: comparisons, constant sub-expressions next to
// column references, BETWEEN, IN lists, LIKE, CASE, functions, AND/OR/NOT,
// and the sub-query closures (uncorrelated scalar and IN, correlated
// EXISTS with a pair predicate, correlated scalar aggregates).
func TestFusedMatchesVectorized(t *testing.T) {
	queries := []string{
		"SELECT count(*), sum(y) FROM f WHERE x >= 10 AND x < 10 + 40 AND y <= 5.5",
		"SELECT x, y FROM f WHERE y BETWEEN 1 AND 2 AND nk IS NOT NULL ORDER BY x, y LIMIT 30",
		"SELECT count(*) FROM f WHERE nk IN (1, 3, NULL) OR s LIKE 'g_'",
		"SELECT count(*) FROM f WHERE x < 10 OR 2 IN (1, 3)",
		"SELECT count(*) FROM f WHERE coalesce(nk > 2, 1 IN (1))",
		"SELECT count(*) FROM f WHERE extract(year from date '1994-01-01' + interval '1' year) = 1995 AND x < 7",
		"SELECT count(*) FROM f WHERE cast(x AS varchar) LIKE '1%' AND round(y, 1) > 2",
		"SELECT s, count(*) FROM f WHERE NOT (nk = 2) AND s <> 'ga' GROUP BY s ORDER BY s",
		"SELECT count(*) FROM f WHERE CASE WHEN nk > 2 THEN y ELSE -y END > 1",
		"SELECT count(*) FROM f WHERE CASE nk WHEN 1 THEN 'one' WHEN 4 THEN 'four' END = 'four'",
		"SELECT count(*) FROM f WHERE abs(x - 100) < 7 AND upper(s) = 'GC' AND coalesce(nk, 0) = 0",
		"SELECT count(*) FROM f WHERE length(s) = 2 AND substring(s from 2 for 1) IN ('a', 'b')",
		"SELECT count(*), sum(y) FROM f WHERE x > (SELECT avg(x) FROM f WHERE nk = 1)",
		"SELECT count(*) FROM f WHERE x IN (SELECT k FROM dim WHERE name = 'dc')",
		"SELECT count(*) FROM f a WHERE EXISTS (SELECT 1 FROM f b WHERE b.x = a.x AND b.y > a.y)",
		"SELECT count(*) FROM f a WHERE NOT EXISTS (SELECT 1 FROM f b WHERE b.nk = a.nk AND b.x < a.x)",
		"SELECT count(*) FROM f a WHERE a.y > (SELECT avg(b.y) FROM f b WHERE b.s = a.s)",
		"SELECT f.x, dim.name FROM f, dim WHERE f.x = dim.k AND f.nk = 3 AND dim.name LIKE 'd%' ORDER BY 1, 2",
	}
	for _, rows := range []int{5000, 0} {
		cat := parCatalog(rows, 300)
		for _, sql := range queries {
			for _, p := range []int{1, 8} {
				label := fmt.Sprintf("%s [rows=%d P=%d]", sql, rows, p)
				vec := run(t, cat, sql, Options{Parallelism: p})
				fused := run(t, cat, sql, Options{Parallelism: p, Fused: true})
				if fused.Stats.FilterPasses > vec.Stats.FilterPasses {
					t.Errorf("%s: fused made %d selection passes, vectorized %d", label, fused.Stats.FilterPasses, vec.Stats.FilterPasses)
				}
				vec.Stats.FilterPasses, fused.Stats.FilterPasses = 0, 0
				resultsIdentical(t, label, vec, fused)
			}
		}
	}
}

// TestFusedDefersErrors checks the fused loop's error discipline against
// the vectorized filter's: a pushed-down conjunct that fails at run time
// defers the statement (ErrUnsupported), and a conjunct over an unknown
// column fails only once rows reach it.
func TestFusedDefersErrors(t *testing.T) {
	cat := seqCatalog(100)
	for _, fused := range []bool{false, true} {
		for _, sql := range []string{
			"SELECT count(*) FROM t WHERE x > 5 AND s + 1 > 0",
			"SELECT count(*) FROM t WHERE x > 5 AND nosuch > 1",
		} {
			if err := runErr(t, cat, sql, Options{Fused: fused}); !errors.Is(err, ErrUnsupported) {
				t.Errorf("fused=%v %s: error = %v, want ErrUnsupported", fused, sql, err)
			}
		}
		res := run(t, cat, "SELECT count(*) FROM t WHERE x < 0 AND nosuch > 1", Options{Fused: fused})
		if got := res.Cols[0].Ints[0]; got != 0 {
			t.Errorf("fused=%v: count = %d, want 0", fused, got)
		}
	}
}
