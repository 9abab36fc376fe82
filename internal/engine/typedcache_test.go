package engine

import (
	"sync"
	"testing"

	"sqalpel/internal/sqlsem"
	"sqalpel/internal/vexec"
)

// cacheFixture builds a database with one string-keyed table big enough to
// span several zone blocks.
func cacheFixture(rows int) (*Database, *Table) {
	words := []string{"alpha", "beta", "gamma"}
	tab := NewTable("t",
		Column{Name: "s", Type: TypeString},
		Column{Name: "x", Type: TypeInt},
	)
	for i := 0; i < rows; i++ {
		tab.MustAppendRow(sqlsem.NewString(words[i%len(words)]), sqlsem.NewInt(int64(i)))
	}
	db := NewDatabase("d")
	db.AddTable(tab)
	return db, tab
}

// TestTypedCacheRebuildsEncodingsOnVersionBump pins the invalidation
// contract of the typed import under the new storage encodings: a data
// mutation bumps the table version, and the next import rebuilds the typed
// table — including its string dictionary and zone maps — exactly once.
func TestTypedCacheRebuildsEncodingsOnVersionBump(t *testing.T) {
	db, tab := cacheFixture(2500)
	tc := newTypedCache()

	vt1, err := tc.typedTable(db, tab)
	if err != nil {
		t.Fatal(err)
	}
	if d := vt1.DictFor("s"); d == nil || d.Len() != 3 {
		t.Fatalf("imported dictionary = %v, want 3 entries", d)
	}
	if nb := vt1.NumZoneBlocks(); nb != 3 {
		t.Fatalf("zone blocks = %d, want 3 for 2500 rows", nb)
	}
	if again, _ := tc.typedTable(db, tab); again != vt1 {
		t.Fatal("unchanged version was re-imported")
	}
	if tc.builds != 1 {
		t.Fatalf("builds = %d after two same-version imports, want 1", tc.builds)
	}

	// A mutation invalidates: the rebuilt table must carry the new value in
	// its dictionary and cover the appended row with its zone maps.
	tab.MustAppendRow(sqlsem.NewString("zeta"), sqlsem.NewInt(9999))
	vt2, err := tc.typedTable(db, tab)
	if err != nil {
		t.Fatal(err)
	}
	if vt2 == vt1 {
		t.Fatal("version bump served the stale typed table")
	}
	if d := vt2.DictFor("s"); d == nil || d.Len() != 4 {
		t.Fatalf("rebuilt dictionary = %v, want 4 entries including the appended value", d)
	}
	if _, ok := vt2.DictFor("s").Code("zeta"); !ok {
		t.Fatal("rebuilt dictionary misses the appended value")
	}
	if nb := vt2.NumZoneBlocks(); nb != 3 {
		t.Fatalf("rebuilt zone blocks = %d, want 3 for 2501 rows", nb)
	}
	if tc.builds != 2 {
		t.Fatalf("builds = %d after one invalidation, want 2", tc.builds)
	}
}

// TestTypedCacheConcurrentBuildOnce races many importers of one table
// version against each other: every caller must receive the same typed
// table and the decode (with its dictionary and zone-map construction) must
// run exactly once.
func TestTypedCacheConcurrentBuildOnce(t *testing.T) {
	db, tab := cacheFixture(5000)
	tc := newTypedCache()

	const goroutines = 32
	results := make([]*vexec.Table, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			vt, err := tc.typedTable(db, tab)
			results[g], errs[g] = vt, err
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if results[g] != results[0] {
			t.Fatalf("goroutine %d received a different typed table", g)
		}
	}
	if results[0] == nil {
		t.Fatal("no typed table built")
	}
	if tc.builds != 1 {
		t.Fatalf("builds = %d across %d concurrent importers, want 1", tc.builds, goroutines)
	}
}
