package vexec

import (
	"fmt"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// This file is the one mechanism that distinguishes the compiled paradigm
// (Options.Fused, the fusil engine) from the vectorized one: the fused
// scan→filter loop. A base-table scan's pushed-down conjuncts are compiled
// once per execution into Go closures that read the table's typed vectors
// at a row index, and the filter runs every row of a scan window through
// all of them in one loop — no predicate vectors, no per-conjunct
// selection passes. The loop sits directly on the scan's zero-copy windows
// (zone-map block skipping included) and emits the selection-vector
// batches the vectorized filter would, so joins, aggregation, DISTINCT,
// sort, sub-query materialization and the epilogue are vexec's own
// operators, serial or morsel-parallel.
//
// Compilation mirrors the batch evaluator: the same resolution rules, NULL
// semantics and per-row bodies of functions, CAST, EXTRACT and SUBSTRING
// (all from sqlsem), and the same eagerness — every sub-expression is
// evaluated at every row before its operator applies (no short-circuiting
// in AND/OR/CASE/IN), and the contexts the evaluator wraps with
// deferToFallback defer here too.

// rowFn is one compiled expression evaluated at row i of the scanned
// table. j is the inner row of a decorrelated sub-query's pair predicate
// (see compileApplyProbe); every other closure ignores it.
type rowFn func(i, j int) (sqlsem.Value, error)

// fusedScope resolves column references at compile time: cols[k] is the
// vector behind meta[k]. Columns at positions >= inner read at the inner
// row j (the pair scope of correlation predicates); in a scan scope inner
// is len(cols).
type fusedScope struct {
	meta  []colMeta
	cols  []*Vector
	inner int
}

// scope returns the compile scope of the scan's base table.
func (s *scanOp) scope() *fusedScope {
	cols := make([]*Vector, len(s.table.Cols))
	for i, c := range s.table.Cols {
		cols[i] = c.Vec
	}
	return &fusedScope{meta: s.meta, cols: cols, inner: len(cols)}
}

// cond is one compiled filter conjunct. Compile errors are carried, not
// raised: the vectorized filter evaluates a conjunct only when rows reach
// it, so a conjunct over a missing column must not fail a scan that
// produces no rows. The error surfaces, deferred, at the first row.
type cond struct {
	fn  rowFn
	err error
}

func (ex *executor) compileConds(exprs []sqlparser.Expr, sc *fusedScope) []cond {
	out := make([]cond, len(exprs))
	for i, e := range exprs {
		out[i].fn, out[i].err = ex.compile(e, sc)
	}
	return out
}

// passConds applies the compiled conjuncts to table row i with two-valued
// truth (NULL fails). Errors defer the statement to the interpreter, like
// the vectorized filter's; conjuncts after a rejecting one are not
// evaluated, matching the shrinking selection of per-conjunct passes.
func passConds(conds []cond, i int) (bool, error) {
	for k := range conds {
		c := &conds[k]
		if c.err != nil {
			return false, deferToFallback(c.err)
		}
		v, err := c.fn(i, 0)
		if err != nil {
			return false, deferToFallback(err)
		}
		if !sqlsem.Lift(v).Accept() {
			return false, nil
		}
	}
	return true, nil
}

// applyFused is the fused filter loop over one scan window: b is a dense
// zero-copy window whose physical row 0 is table row b.base. The
// survivors become the batch's selection vector.
func applyFused(b *Batch, conds []cond) error {
	sel := b.selBuf // recycled capacity from a reused frame, if any
	b.selBuf = nil
	if sel == nil {
		sel = make([]int, 0, b.n)
	}
	for r := 0; r < b.n; r++ {
		ok, err := passConds(conds, b.base+r)
		if err != nil {
			return err
		}
		if ok {
			sel = append(sel, r)
		}
	}
	b.sel = sel // non-nil even when empty: nil means "all rows live"
	return nil
}

func constFn(s sqlsem.Value) rowFn {
	return func(int, int) (sqlsem.Value, error) { return s, nil }
}

// compileAll compiles a list of expressions, stopping at the first error.
func (ex *executor) compileAll(exprs []sqlparser.Expr, sc *fusedScope) ([]rowFn, error) {
	fns := make([]rowFn, len(exprs))
	for k, e := range exprs {
		var err error
		if fns[k], err = ex.compile(e, sc); err != nil {
			return nil, err
		}
	}
	return fns, nil
}

// evalAll evaluates compiled expressions eagerly at one row.
func evalAll(fns []rowFn, i, j int) ([]sqlsem.Value, error) {
	vals := make([]sqlsem.Value, len(fns))
	for k, fn := range fns {
		var err error
		if vals[k], err = fn(i, j); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// compile builds the closure of one expression.
func (ex *executor) compile(e sqlparser.Expr, sc *fusedScope) (rowFn, error) {
	switch v := e.(type) {
	case *sqlparser.NumberLit:
		s, err := parseNumberScalar(v.Value)
		if err != nil {
			return nil, err
		}
		return constFn(s), nil
	case *sqlparser.StringLit:
		return constFn(sqlsem.NewString(v.Value)), nil
	case *sqlparser.BoolLit:
		return constFn(sqlsem.NewBool(v.Value)), nil
	case *sqlparser.NullLit:
		return constFn(sqlsem.Null()), nil
	case *sqlparser.DateLit:
		d, err := sqlsem.ParseDate(v.Value)
		if err != nil {
			return nil, errEval(e, err)
		}
		return constFn(sqlsem.NewDate(d)), nil
	case *sqlparser.IntervalLit:
		// Bare intervals evaluate to their numeric count; date arithmetic
		// with a unit is handled in compileBinary.
		s, err := parseNumberScalar(v.Value)
		if err != nil {
			return nil, err
		}
		return constFn(s), nil
	case *sqlparser.ColumnRef:
		idx, err := lookupColumn(sc.meta, v)
		if err != nil {
			return nil, err
		}
		vec := sc.cols[idx]
		if idx >= sc.inner {
			return func(_, j int) (sqlsem.Value, error) { return vec.At(j), nil }, nil
		}
		return func(i, _ int) (sqlsem.Value, error) { return vec.At(i), nil }, nil
	case *sqlparser.ParenExpr:
		return ex.compile(v.Expr, sc)
	case *sqlparser.UnaryExpr:
		return ex.compileUnary(v, sc)
	case *sqlparser.BinaryExpr:
		return ex.compileBinary(v, sc)
	case *sqlparser.FuncCall:
		return ex.compileFunc(v, sc)
	case *sqlparser.CaseExpr:
		return ex.compileCase(v, sc)
	case *sqlparser.BetweenExpr:
		fns, err := ex.compileAll([]sqlparser.Expr{v.Expr, v.Lo, v.Hi}, sc)
		if err != nil {
			return nil, err
		}
		val, lof, hif := fns[0], fns[1], fns[2]
		return func(i, j int) (sqlsem.Value, error) {
			a, err := val(i, j)
			if err != nil {
				return sqlsem.Value{}, err
			}
			lo, err := lof(i, j)
			if err != nil {
				return sqlsem.Value{}, err
			}
			hi, err := hif(i, j)
			if err != nil {
				return sqlsem.Value{}, err
			}
			geLo, leHi := sqlsem.CompareValues(">=", a, lo), sqlsem.CompareValues("<=", a, hi)
			return sqlsem.Lower(sqlsem.Between(geLo, leHi, v.Not)), nil
		}, nil
	case *sqlparser.InExpr:
		if v.Subquery != nil {
			return ex.compileInSub(v, sc)
		}
		return ex.compileInList(v, sc)
	case *sqlparser.IsNullExpr:
		val, err := ex.compile(v.Expr, sc)
		if err != nil {
			return nil, err
		}
		return func(i, j int) (sqlsem.Value, error) {
			s, err := val(i, j)
			if err != nil {
				return sqlsem.Value{}, err
			}
			return sqlsem.NewBool(s.IsNull() != v.Not), nil
		}, nil
	case *sqlparser.ExistsExpr:
		return ex.compileExists(v, sc)
	case *sqlparser.SubqueryExpr:
		return ex.compileScalarSub(v, sc)
	case *sqlparser.ExtractExpr:
		return ex.compileExtract(v, sc)
	case *sqlparser.SubstringExpr:
		return ex.compileSubstring(v, sc)
	case *sqlparser.CastExpr:
		return ex.compileCast(v, sc)
	case *sqlparser.ParamRef:
		return nil, fmt.Errorf("unresolved template parameter ${%s}", v.Name)
	default:
		return nil, fmt.Errorf("%w: expression %T", ErrUnsupported, e)
	}
}

func (ex *executor) compileUnary(v *sqlparser.UnaryExpr, sc *fusedScope) (rowFn, error) {
	val, err := ex.compile(v.Expr, sc)
	if err != nil {
		return nil, err
	}
	switch v.Op {
	case "NOT":
		return func(i, j int) (sqlsem.Value, error) {
			s, err := val(i, j)
			if err != nil {
				return sqlsem.Value{}, err
			}
			return sqlsem.Lower(sqlsem.Not(sqlsem.Lift(s))), nil
		}, nil
	case "-":
		return func(i, j int) (sqlsem.Value, error) {
			s, err := val(i, j)
			return sqlsem.Negate(s), err
		}, nil
	case "+":
		return val, nil
	default:
		return nil, fmt.Errorf("unknown unary operator %q", v.Op)
	}
}

func (ex *executor) compileBinary(v *sqlparser.BinaryExpr, sc *fusedScope) (rowFn, error) {
	// Date +/- INTERVAL with a calendar unit.
	if iv, ok := v.Right.(*sqlparser.IntervalLit); ok && (v.Op == "+" || v.Op == "-") {
		l, err := ex.compile(v.Left, sc)
		if err != nil {
			return nil, err
		}
		ns, err := parseNumberScalar(iv.Value)
		if err != nil {
			return nil, err
		}
		n := ns.Int()
		if v.Op == "-" {
			n = -n
		}
		return func(i, j int) (sqlsem.Value, error) {
			s, err := l(i, j)
			if err != nil {
				return sqlsem.Value{}, err
			}
			return sqlsem.AddInterval(s, n, iv.Unit)
		}, nil
	}

	logic := v.Op == "AND" || v.Op == "OR"
	fns, err := ex.compileAll([]sqlparser.Expr{v.Left, v.Right}, sc)
	if err != nil {
		if logic {
			return nil, deferToFallback(err)
		}
		return nil, err
	}
	l, r := fns[0], fns[1]
	eval := func(i, j int) (a, b sqlsem.Value, err error) {
		if a, err = l(i, j); err == nil {
			b, err = r(i, j)
		}
		return a, b, err
	}
	switch op := v.Op; op {
	case "AND", "OR":
		and := op == "AND"
		return func(i, j int) (sqlsem.Value, error) {
			// Both arms evaluate eagerly, like the batch evaluator's
			// whole-batch arms; arm errors defer the statement.
			a, b, err := eval(i, j)
			switch {
			case err != nil:
				return sqlsem.Value{}, deferToFallback(err)
			case and:
				return sqlsem.Lower(sqlsem.And(sqlsem.Lift(a), sqlsem.Lift(b))), nil
			default:
				return sqlsem.Lower(sqlsem.Or(sqlsem.Lift(a), sqlsem.Lift(b))), nil
			}
		}, nil
	case "+", "-", "*", "/", "%", "||":
		return func(i, j int) (sqlsem.Value, error) {
			a, b, err := eval(i, j)
			if err != nil {
				return sqlsem.Value{}, err
			}
			out, err := sqlsem.Arithmetic(op, a, b)
			if err != nil {
				return sqlsem.Value{}, errEval(v, err)
			}
			return out, nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return func(i, j int) (sqlsem.Value, error) {
			a, b, err := eval(i, j)
			if err != nil {
				return sqlsem.Value{}, err
			}
			return sqlsem.Lower(sqlsem.CompareValues(op, a, b)), nil
		}, nil
	case "LIKE", "NOT LIKE":
		negate := op == "NOT LIKE"
		return func(i, j int) (sqlsem.Value, error) {
			a, b, err := eval(i, j)
			if err != nil {
				return sqlsem.Value{}, err
			}
			return sqlsem.Lower(sqlsem.LikeValues(a, b, negate)), nil
		}, nil
	default:
		return nil, fmt.Errorf("unknown binary operator %q", v.Op)
	}
}

func (ex *executor) compileCase(v *sqlparser.CaseExpr, sc *fusedScope) (rowFn, error) {
	var operand rowFn
	if v.Operand != nil {
		var err error
		if operand, err = ex.compile(v.Operand, sc); err != nil {
			return nil, err
		}
	}
	// Arms are laid out when0, then0, when1, then1, ..., else.
	arms := make([]sqlparser.Expr, 0, 2*len(v.Whens)+1)
	for _, w := range v.Whens {
		arms = append(arms, w.When, w.Then)
	}
	if v.Else != nil {
		arms = append(arms, v.Else)
	} else {
		arms = append(arms, &sqlparser.NullLit{})
	}
	fns, err := ex.compileAll(arms, sc)
	if err != nil {
		return nil, deferToFallback(err)
	}
	return func(i, j int) (sqlsem.Value, error) {
		var opVal sqlsem.Value
		if operand != nil {
			var err error
			if opVal, err = operand(i, j); err != nil {
				return sqlsem.Value{}, err
			}
		}
		// All arms evaluate eagerly (the batch evaluator computes every arm
		// over the whole batch); arm errors defer the statement. The first
		// hitting WHEN picks its THEN, the ELSE arm (last) otherwise.
		var out sqlsem.Value
		picked := false
		for k := 0; k+1 < len(fns); k += 2 {
			w, err := fns[k](i, j)
			if err != nil {
				return sqlsem.Value{}, deferToFallback(err)
			}
			t, err := fns[k+1](i, j)
			if err != nil {
				return sqlsem.Value{}, deferToFallback(err)
			}
			hit := w.Bool()
			if operand != nil {
				hit = sqlsem.Equal(opVal, w)
			}
			if hit && !picked {
				out, picked = t, true
			}
		}
		e, err := fns[len(fns)-1](i, j)
		if err != nil {
			return sqlsem.Value{}, deferToFallback(err)
		}
		if !picked {
			out = e
		}
		return out, nil
	}, nil
}

func (ex *executor) compileInList(v *sqlparser.InExpr, sc *fusedScope) (rowFn, error) {
	val, err := ex.compile(v.Expr, sc)
	if err != nil {
		return nil, err
	}
	items, err := ex.compileAll(v.List, sc)
	if err != nil {
		return nil, deferToFallback(err)
	}
	return func(i, j int) (sqlsem.Value, error) {
		a, err := val(i, j)
		if err != nil {
			return sqlsem.Value{}, err
		}
		// Every item evaluates, like the batch evaluator's item vectors; item
		// errors defer. Membership is decided by the items before the first
		// match.
		var found, listHasNull bool
		for _, item := range items {
			s, err := item(i, j)
			if err != nil {
				return sqlsem.Value{}, deferToFallback(err)
			}
			if found {
				continue
			}
			if sqlsem.Equal(a, s) {
				found = true
			} else if s.IsNull() {
				listHasNull = true
			}
		}
		return sqlsem.Lower(inTri(a.IsNull(), found, listHasNull, v.Not)), nil
	}, nil
}

func (ex *executor) compileExtract(v *sqlparser.ExtractExpr, sc *fusedScope) (rowFn, error) {
	val, err := ex.compile(v.From, sc)
	if err != nil {
		return nil, err
	}
	return func(i, j int) (sqlsem.Value, error) {
		s, err := val(i, j)
		if err != nil {
			return sqlsem.Value{}, err
		}
		r, err := sqlsem.Extract(v.Unit, s)
		if err != nil {
			return sqlsem.Value{}, errEval(v, err)
		}
		return r, nil
	}, nil
}

func (ex *executor) compileSubstring(v *sqlparser.SubstringExpr, sc *fusedScope) (rowFn, error) {
	args := []sqlparser.Expr{v.Expr, v.Start}
	if v.Length != nil {
		args = append(args, v.Length)
	}
	fns, err := ex.compileAll(args, sc)
	if err != nil {
		return nil, err
	}
	return func(i, j int) (sqlsem.Value, error) {
		vals, err := evalAll(fns, i, j)
		if err != nil {
			return sqlsem.Value{}, err
		}
		return sqlsem.Substring(vals), nil
	}, nil
}

func (ex *executor) compileCast(v *sqlparser.CastExpr, sc *fusedScope) (rowFn, error) {
	val, err := ex.compile(v.Expr, sc)
	if err != nil {
		return nil, err
	}
	return func(i, j int) (sqlsem.Value, error) {
		s, err := val(i, j)
		if err != nil {
			return sqlsem.Value{}, err
		}
		return sqlsem.Cast(s, v.Type)
	}, nil
}

func (ex *executor) compileFunc(v *sqlparser.FuncCall, sc *fusedScope) (rowFn, error) {
	if v.IsAggregate() {
		return nil, fmt.Errorf("aggregate %s used outside GROUP BY context", v.Name)
	}
	args, err := ex.compileAll(v.Args, sc)
	if err != nil {
		return nil, err
	}
	apply, err := sqlsem.Func(v.Name, len(args))
	if err != nil {
		return nil, err
	}
	return func(i, j int) (sqlsem.Value, error) {
		vals, err := evalAll(args, i, j)
		if err != nil {
			return sqlsem.Value{}, err
		}
		return apply(vals), nil
	}, nil
}

// --- sub-query use sites -------------------------------------------------------
//
// The closures below bind the executor's prepared sub-query states
// (subquery.go), which exist before any scan filter is compiled and are
// read-only afterwards, so the closures are safe from morsel workers.

// applyGroup evaluates the compiled outer correlation keys at row i and
// looks their group up in the decorrelated build; ok is false when a key
// is NULL (equality with NULL is UNKNOWN) or no inner row shares the key.
func applyGroup(as *applyState, keys []rowFn, i int) (g int32, ok bool, err error) {
	var buf []byte
	for _, k := range keys {
		s, err := k(i, 0)
		if err != nil {
			return 0, false, deferToFallback(err)
		}
		if s.IsNull() {
			return 0, false, nil
		}
		buf = append(sqlsem.AppendKey(buf, s), '|')
	}
	g, ok = as.groups[string(buf)]
	return g, ok, nil
}

// compileApplyProbe builds the probe of one correlated use site: the
// candidate inner rows of outer row i that match its key group and pass
// the pair predicates, in inner-row order. Compile errors are folded into
// the probe and surface, deferred, at the first probing row — the batch
// evaluator meets them only when a batch actually probes.
func (ex *executor) compileApplyProbe(as *applyState, sc *fusedScope) func(i int) ([]int32, error) {
	keys, keyErr := ex.compileAll(as.outerKeys, sc)
	var pairs []rowFn
	var pairErr error
	if len(as.pairConjuncts) > 0 {
		// Pair predicates see the outer row followed by the inner row — the
		// batch evaluator's pair-batch layout.
		pairs, pairErr = ex.compileAll(as.pairConjuncts, &fusedScope{
			meta:  append(append([]colMeta(nil), sc.meta...), as.inner.meta...),
			cols:  append(append([]*Vector(nil), sc.cols...), as.inner.cols...),
			inner: len(sc.cols),
		})
	}
	return func(i int) ([]int32, error) {
		if keyErr != nil {
			return nil, deferToFallback(keyErr)
		}
		g, ok, err := applyGroup(as, keys, i)
		if err != nil || !ok {
			return nil, err
		}
		var cand []int32
		for r := as.lists.head[g]; r >= 0; r = as.lists.next[r] {
			cand = append(cand, r)
		}
		if len(pairs) == 0 {
			return cand, nil
		}
		if pairErr != nil {
			return nil, deferToFallback(pairErr)
		}
		// Every predicate evaluates over every candidate pair, like the
		// batch evaluator's whole pair vectors.
		pass := make([]bool, len(cand))
		for k := range pass {
			pass[k] = true
		}
		for _, fn := range pairs {
			for k, c := range cand {
				v, err := fn(i, int(c))
				if err != nil {
					return nil, deferToFallback(err)
				}
				pass[k] = pass[k] && sqlsem.Lift(v).Accept()
			}
		}
		out := cand[:0]
		for k, c := range cand {
			if pass[k] {
				out = append(out, c)
			}
		}
		return out, nil
	}
}

// compileExists answers EXISTS/NOT EXISTS: a constant for uncorrelated
// sites, candidate presence for correlated ones; always two-valued.
func (ex *executor) compileExists(v *sqlparser.ExistsExpr, sc *fusedScope) (rowFn, error) {
	st, err := ex.subFor(v.Subquery)
	if err != nil {
		return nil, err
	}
	if !st.correlated {
		return constFn(sqlsem.NewBool(st.exists != v.Not)), nil
	}
	probe := ex.compileApplyProbe(st.apply, sc)
	return func(i, _ int) (sqlsem.Value, error) {
		cand, err := probe(i)
		if err != nil {
			return sqlsem.Value{}, err
		}
		return sqlsem.NewBool((len(cand) > 0) != v.Not), nil
	}, nil
}

// compileScalarSub answers a scalar sub-query site: the materialized value
// for uncorrelated sites, the key group's aggregate (or the empty-group
// value) for ApplyAgg, the first surviving candidate's projection (or
// NULL) for ApplyFirst.
func (ex *executor) compileScalarSub(v *sqlparser.SubqueryExpr, sc *fusedScope) (rowFn, error) {
	st, err := ex.subFor(v.Select)
	if err != nil {
		return nil, err
	}
	if !st.correlated {
		return constFn(st.scalarVal), nil
	}
	as := st.apply
	if as.shape == plan.ApplyAgg {
		keys, keyErr := ex.compileAll(as.outerKeys, sc)
		return func(i, _ int) (sqlsem.Value, error) {
			if keyErr != nil {
				return sqlsem.Value{}, deferToFallback(keyErr)
			}
			g, ok, err := applyGroup(as, keys, i)
			if err != nil || !ok {
				return as.emptyVal, err
			}
			return as.groupVals.At(int(g)), nil
		}, nil
	}
	probe := ex.compileApplyProbe(as, sc)
	return func(i, _ int) (sqlsem.Value, error) {
		cand, err := probe(i)
		if err != nil || len(cand) == 0 {
			return sqlsem.Null(), err
		}
		return as.projVals.At(int(cand[0])), nil
	}, nil
}

// compileInSub answers IN/NOT IN against a sub-query with the ternary
// membership semantics of sqlsem.In: uncorrelated sites probe the
// materialized set, correlated sites scan their candidates' projections.
func (ex *executor) compileInSub(v *sqlparser.InExpr, sc *fusedScope) (rowFn, error) {
	st, err := ex.subFor(v.Subquery)
	if err != nil {
		return nil, err
	}
	val, err := ex.compile(v.Expr, sc)
	if err != nil {
		return nil, err
	}
	in := func(a sqlsem.Value, found, hasNull, empty bool) sqlsem.Value {
		t := sqlsem.In(a.IsNull(), found, hasNull, empty)
		if v.Not {
			t = sqlsem.Not(t)
		}
		return sqlsem.Lower(t)
	}
	if !st.correlated {
		return func(i, j int) (sqlsem.Value, error) {
			a, err := val(i, j)
			if err != nil {
				return sqlsem.Value{}, err
			}
			found := false
			if !a.IsNull() && len(st.set) > 0 {
				found = st.set[string(sqlsem.AppendKey(nil, a))]
			}
			return in(a, found, st.setHasNull, st.setEmpty), nil
		}, nil
	}
	as := st.apply
	probe := ex.compileApplyProbe(as, sc)
	return func(i, j int) (sqlsem.Value, error) {
		a, err := val(i, j)
		if err != nil {
			return sqlsem.Value{}, err
		}
		cand, err := probe(i)
		if err != nil {
			return sqlsem.Value{}, err
		}
		var found, hasNull bool
		for _, c := range cand {
			s := as.projVals.At(int(c))
			if s.IsNull() {
				hasNull = true
				continue
			}
			if sqlsem.Equal(a, s) {
				found = true
				break
			}
		}
		return in(a, found, hasNull, len(cand) == 0), nil
	}, nil
}
