// Package vexec is sqalpel's third execution paradigm: a batch-at-a-time
// vectorized executor in the VectorWise tradition, contrasting with the
// tuple-at-a-time interpreter (tuplestore) and the full-column materializing
// interpreter (columba) of internal/engine.
//
// Its distinguishing mechanics:
//
//   - Typed, unboxed columnar vectors ([]int64, []float64, []string) with
//     separate null bitmaps instead of boxed sqlsem.Value cells. Numeric
//     vectors may carry a per-row int/float duality mask so the SQL value
//     semantics (exact integer arithmetic, int-preserving division) hold
//     bit for bit. Everything boxed — group accumulators, sort keys, the
//     fused closures' values, results — is a sqlsem.Value, and the scalar
//     algebra (comparison, hash keys, arithmetic, dates, LIKE, CAST,
//     EXTRACT, SUBSTRING, functions) is sqlsem's, defined once for every
//     engine; vexec adds only the typed vector kernels over it.
//   - Selection vectors: filters shrink an index list over a batch instead
//     of copying payload columns; one pass per conjunct, like a column store,
//     but over fixed-size batches.
//   - A pull-based operator pipeline (scan -> filter -> hash join -> hash
//     aggregate -> order/limit -> project) processing fixed-size batches
//     (default 1024 rows) end to end, so intermediates stay cache resident.
//   - Allocation-free hashing: join, group-by and DISTINCT share one
//     open-addressing hash table (hashtable.go) with 64-bit hashes over the
//     unboxed payloads, typed fast paths for single-int and single-string
//     keys and a reusable []byte encoding for compound keys — group ids are
//     dense and in insertion order, which pins output order to the
//     interpreters'.
//   - A compiled scan mode (Options.Fused, the fusil engine; fused.go):
//     pushed-down conjuncts compiled once into closures over the table's
//     typed vectors and run row by row in one loop fused onto the scan,
//     feeding the same operators above.
//   - Morsel-driven intra-query parallelism (parallel.go, enabled by
//     Options.Parallelism): scan->filter morsels, thread-local aggregation
//     states and partitioned hash-join builds fan across a bounded worker
//     pool, with every merge walking morsel order — results are
//     bit-identical at any worker count, float summation order included.
//
// The package depends only on internal/sqlparser, internal/sqlsem and the
// shared logical plan of internal/plan: ExecutePlan compiles its pipeline
// straight from a pre-built plan's classified conjuncts and join steps
// (Execute plans on the fly for standalone use), and takes each SELECT's
// output shape — projection items, resolved ORDER BY keys, validated
// aggregate calls, the LIMIT/OFFSET window — from the plan as well. Its
// Accumulator is the one aggregate fold and finalize of every engine: the
// interpreters of internal/engine use it beside Stats and Builder. It executes the dialect subset that
// vectorizes well (conjunctive filters, equi hash joins, hash aggregation,
// ordering, DISTINCT, LIMIT and the full scalar expression repertoire);
// statements using sub-queries, outer joins, derived tables or set
// operations carry a negative Vectorizable verdict on their plan and
// return ErrUnsupported, which the engine-level adapter (internal/engine's
// vektor family) turns into interpreter execution of the same plan. The
// conversion from the boxed []sqlsem.Value storage of engine.Database into
// typed vectors (through Builder) happens once per table data version in
// that adapter, not here.
package vexec
