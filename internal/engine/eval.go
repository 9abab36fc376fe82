package engine

import (
	"fmt"

	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
	"sqalpel/internal/vexec"
)

// scope is one level of column visibility: a relation plus the current row,
// chained to the enclosing query's scope for correlated sub-queries.
type scope struct {
	rel   *relation
	row   int
	outer *scope
}

// evaluator evaluates scalar expressions against a scope chain. When group
// is non-nil the evaluator is in aggregate context: aggregate function calls
// are computed over the listed row indexes of the scope relation, and plain
// column references resolve against the first row of the group (NULL when
// the group is empty).
type evaluator struct {
	ex    *executor
	sc    *scope
	group []int
}

// errEval wraps evaluation failures with the failing expression.
func errEval(e sqlparser.Expr, err error) error {
	return fmt.Errorf("evaluating %q: %w", e.SQL(), err)
}

// resolve looks a column reference up in the scope chain.
func (ev *evaluator) resolve(table, name string) (sqlsem.Value, error) {
	for s := ev.sc; s != nil; s = s.outer {
		idx, err := s.rel.findColumn(table, name)
		if err == nil {
			if s == ev.sc && ev.group != nil && len(ev.group) == 0 {
				// The implicit group of an aggregate over no rows has no
				// first row: a bare column reference in it is NULL.
				return sqlsem.Null(), nil
			}
			return s.rel.value(s.row, idx), nil
		}
		if err != errColumnNotFound {
			return sqlsem.Value{}, err
		}
	}
	if table != "" {
		return sqlsem.Value{}, fmt.Errorf("unknown column %s.%s", table, name)
	}
	return sqlsem.Value{}, fmt.Errorf("unknown column %s", name)
}

// eval evaluates an expression to a single value.
func (ev *evaluator) eval(e sqlparser.Expr) (sqlsem.Value, error) {
	switch v := e.(type) {
	case *sqlparser.NumberLit:
		return parseNumber(v.Value), nil
	case *sqlparser.StringLit:
		return sqlsem.NewString(v.Value), nil
	case *sqlparser.BoolLit:
		return sqlsem.NewBool(v.Value), nil
	case *sqlparser.NullLit:
		return sqlsem.Null(), nil
	case *sqlparser.DateLit:
		d, err := sqlsem.ParseDate(v.Value)
		if err != nil {
			return sqlsem.Value{}, errEval(e, err)
		}
		return sqlsem.NewDate(d), nil
	case *sqlparser.IntervalLit:
		// Bare intervals only appear as the right operand of date arithmetic
		// which is handled in the BinaryExpr case; evaluating one directly
		// yields its numeric count (used for day intervals).
		return parseNumber(v.Value), nil
	case *sqlparser.ColumnRef:
		return ev.resolve(v.Table, v.Column)
	case *sqlparser.ParenExpr:
		return ev.eval(v.Expr)
	case *sqlparser.UnaryExpr:
		return ev.evalUnary(v)
	case *sqlparser.BinaryExpr:
		return ev.evalBinary(v)
	case *sqlparser.FuncCall:
		return ev.evalFunc(v)
	case *sqlparser.CaseExpr:
		return ev.evalCase(v)
	case *sqlparser.BetweenExpr:
		return ev.evalBetween(v)
	case *sqlparser.InExpr:
		return ev.evalIn(v)
	case *sqlparser.ExistsExpr:
		rel, err := ev.ex.executeSubquery(v.Subquery, ev.sc)
		if err != nil {
			return sqlsem.Value{}, errEval(e, err)
		}
		if v.Not {
			return sqlsem.NewBool(rel.numRows() == 0), nil
		}
		return sqlsem.NewBool(rel.numRows() > 0), nil
	case *sqlparser.IsNullExpr:
		val, err := ev.eval(v.Expr)
		if err != nil {
			return sqlsem.Value{}, err
		}
		if v.Not {
			return sqlsem.NewBool(!val.IsNull()), nil
		}
		return sqlsem.NewBool(val.IsNull()), nil
	case *sqlparser.SubqueryExpr:
		rel, err := ev.ex.executeSubquery(v.Select, ev.sc)
		if err != nil {
			return sqlsem.Value{}, errEval(e, err)
		}
		if rel.numRows() == 0 || len(rel.cols) == 0 {
			return sqlsem.Null(), nil
		}
		return rel.value(0, 0), nil
	case *sqlparser.ExtractExpr:
		val, err := ev.eval(v.From)
		if err != nil {
			return sqlsem.Value{}, err
		}
		r, err := sqlsem.Extract(v.Unit, val)
		if err != nil {
			return sqlsem.Value{}, errEval(e, err)
		}
		return r, nil
	case *sqlparser.SubstringExpr:
		return ev.evalSubstring(v)
	case *sqlparser.CastExpr:
		return ev.evalCast(v)
	case *sqlparser.ParamRef:
		return sqlsem.Value{}, fmt.Errorf("unresolved template parameter ${%s}", v.Name)
	default:
		return sqlsem.Value{}, fmt.Errorf("unsupported expression %T", e)
	}
}

// parseNumber parses a numeric literal, coercing what sqlsem.ParseNumber
// rejects leniently: the longest float prefix, or 0.
func parseNumber(s string) sqlsem.Value {
	v, err := sqlsem.ParseNumber(s)
	if err != nil {
		return sqlsem.NewFloat(atof(s))
	}
	return v
}

func atof(s string) float64 {
	var f float64
	_, err := fmt.Sscanf(s, "%g", &f)
	if err != nil {
		return 0
	}
	return f
}

func (ev *evaluator) evalUnary(v *sqlparser.UnaryExpr) (sqlsem.Value, error) {
	val, err := ev.eval(v.Expr)
	if err != nil {
		return sqlsem.Value{}, err
	}
	switch v.Op {
	case "NOT":
		return sqlsem.Lower(sqlsem.Not(sqlsem.Lift(val))), nil
	case "-":
		return sqlsem.Negate(val), nil
	case "+":
		return val, nil
	default:
		return sqlsem.Value{}, fmt.Errorf("unknown unary operator %q", v.Op)
	}
}

func (ev *evaluator) evalBinary(v *sqlparser.BinaryExpr) (sqlsem.Value, error) {
	switch v.Op {
	case "AND":
		l, err := ev.eval(v.Left)
		if err != nil {
			return sqlsem.Value{}, err
		}
		lt := sqlsem.Lift(l)
		if lt == sqlsem.False {
			// Definite FALSE short-circuits; UNKNOWN must still see the
			// right side (UNKNOWN AND FALSE is FALSE, not UNKNOWN).
			return sqlsem.NewBool(false), nil
		}
		r, err := ev.eval(v.Right)
		if err != nil {
			return sqlsem.Value{}, err
		}
		return sqlsem.Lower(sqlsem.And(lt, sqlsem.Lift(r))), nil
	case "OR":
		l, err := ev.eval(v.Left)
		if err != nil {
			return sqlsem.Value{}, err
		}
		lt := sqlsem.Lift(l)
		if lt == sqlsem.True {
			return sqlsem.NewBool(true), nil
		}
		r, err := ev.eval(v.Right)
		if err != nil {
			return sqlsem.Value{}, err
		}
		return sqlsem.Lower(sqlsem.Or(lt, sqlsem.Lift(r))), nil
	}

	// Date +/- INTERVAL handled before generic arithmetic.
	if iv, ok := v.Right.(*sqlparser.IntervalLit); ok && (v.Op == "+" || v.Op == "-") {
		l, err := ev.eval(v.Left)
		if err != nil {
			return sqlsem.Value{}, err
		}
		n := parseNumber(iv.Value).Int()
		if v.Op == "-" {
			n = -n
		}
		return sqlsem.AddInterval(l, n, iv.Unit)
	}

	l, err := ev.eval(v.Left)
	if err != nil {
		return sqlsem.Value{}, err
	}
	r, err := ev.eval(v.Right)
	if err != nil {
		return sqlsem.Value{}, err
	}
	switch v.Op {
	case "+", "-", "*", "/", "%", "||":
		val, err := sqlsem.Arithmetic(v.Op, l, r)
		if err != nil {
			return sqlsem.Value{}, errEval(v, err)
		}
		return val, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return sqlsem.Lower(sqlsem.CompareValues(v.Op, l, r)), nil
	case "LIKE", "NOT LIKE":
		return sqlsem.Lower(sqlsem.LikeValues(l, r, v.Op == "NOT LIKE")), nil
	default:
		return sqlsem.Value{}, fmt.Errorf("unknown binary operator %q", v.Op)
	}
}

func (ev *evaluator) evalCase(v *sqlparser.CaseExpr) (sqlsem.Value, error) {
	var operand sqlsem.Value
	var err error
	if v.Operand != nil {
		operand, err = ev.eval(v.Operand)
		if err != nil {
			return sqlsem.Value{}, err
		}
	}
	for _, w := range v.Whens {
		cond, err := ev.eval(w.When)
		if err != nil {
			return sqlsem.Value{}, err
		}
		matched := false
		if v.Operand != nil {
			matched = sqlsem.Equal(operand, cond)
		} else {
			matched = cond.Bool()
		}
		if matched {
			return ev.eval(w.Then)
		}
	}
	if v.Else != nil {
		return ev.eval(v.Else)
	}
	return sqlsem.Null(), nil
}

func (ev *evaluator) evalBetween(v *sqlparser.BetweenExpr) (sqlsem.Value, error) {
	val, err := ev.eval(v.Expr)
	if err != nil {
		return sqlsem.Value{}, err
	}
	lo, err := ev.eval(v.Lo)
	if err != nil {
		return sqlsem.Value{}, err
	}
	hi, err := ev.eval(v.Hi)
	if err != nil {
		return sqlsem.Value{}, err
	}
	geLo, leHi := sqlsem.CompareValues(">=", val, lo), sqlsem.CompareValues("<=", val, hi)
	return sqlsem.Lower(sqlsem.Between(geLo, leHi, v.Not)), nil
}

func (ev *evaluator) evalIn(v *sqlparser.InExpr) (sqlsem.Value, error) {
	val, err := ev.eval(v.Expr)
	if err != nil {
		return sqlsem.Value{}, err
	}
	var found, listHasNull, listEmpty bool
	if v.Subquery != nil {
		set, hasNull, err := ev.ex.subquerySet(v.Subquery, ev.sc)
		if err != nil {
			return sqlsem.Value{}, err
		}
		if !val.IsNull() {
			ev.ex.keyBuf = sqlsem.AppendKey(ev.ex.keyBuf[:0], val)
			found = set[string(ev.ex.keyBuf)]
		}
		listHasNull = hasNull
		listEmpty = len(set) == 0 && !hasNull
	} else {
		// An explicit IN list is never empty. A found match still
		// short-circuits (TRUE dominates any NULL in the list), preserving
		// the interpreter's error-evaluation order.
		for _, item := range v.List {
			iv, err := ev.eval(item)
			if err != nil {
				return sqlsem.Value{}, err
			}
			if sqlsem.Equal(val, iv) {
				found = true
				break
			}
			if iv.IsNull() {
				listHasNull = true
			}
		}
	}
	t := sqlsem.In(val.IsNull(), found, listHasNull, listEmpty)
	if v.Not {
		t = sqlsem.Not(t)
	}
	return sqlsem.Lower(t), nil
}

func (ev *evaluator) evalSubstring(v *sqlparser.SubstringExpr) (sqlsem.Value, error) {
	var vals [3]sqlsem.Value
	var err error
	if vals[0], err = ev.eval(v.Expr); err != nil || vals[0].IsNull() {
		// A NULL string short-circuits: start and length are not evaluated.
		return vals[0], err
	}
	if vals[1], err = ev.eval(v.Start); err != nil {
		return sqlsem.Value{}, err
	}
	if v.Length == nil {
		return sqlsem.Substring(vals[:2]), nil
	}
	if vals[2], err = ev.eval(v.Length); err != nil {
		return sqlsem.Value{}, err
	}
	return sqlsem.Substring(vals[:]), nil
}

func (ev *evaluator) evalCast(v *sqlparser.CastExpr) (sqlsem.Value, error) {
	val, err := ev.eval(v.Expr)
	if err != nil {
		return sqlsem.Value{}, err
	}
	return sqlsem.Cast(val, v.Type)
}

// evalFunc evaluates scalar functions and, in aggregate context, aggregate
// functions over the current group.
func (ev *evaluator) evalFunc(v *sqlparser.FuncCall) (sqlsem.Value, error) {
	if v.IsAggregate() {
		if ev.group == nil {
			return sqlsem.Value{}, fmt.Errorf("aggregate %s used outside GROUP BY context", v.Name)
		}
		return ev.evalAggregate(v)
	}
	args := make([]sqlsem.Value, len(v.Args))
	for i, a := range v.Args {
		val, err := ev.eval(a)
		if err != nil {
			return sqlsem.Value{}, err
		}
		args[i] = val
	}
	apply, err := sqlsem.Func(v.Name, len(args))
	if err != nil {
		return sqlsem.Value{}, err
	}
	return apply(args), nil
}

// evalAggregate computes an aggregate over the evaluator's group rows with
// vexec's accumulator; the plan validated the call. The column-at-a-time
// engine first materialises the argument vector (plus an overflow-guarding
// widened copy for multiplicative expressions); the row engine folds values
// directly into the accumulator.
func (ev *evaluator) evalAggregate(v *sqlparser.FuncCall) (sqlsem.Value, error) {
	acc := vexec.NewAccumulator(v)
	switch {
	case v.Star:
	case ev.ex.mode == ModeColumn:
		vals, err := ev.materializeVector(v.Args[0])
		if err != nil {
			return sqlsem.Value{}, err
		}
		for _, val := range vals {
			acc.Fold(val)
		}
	default:
		child := &evaluator{ex: ev.ex, sc: &scope{rel: ev.sc.rel, outer: ev.sc.outer}}
		for _, ri := range ev.group {
			child.sc.row = ri
			val, err := child.eval(v.Args[0])
			if err != nil {
				return sqlsem.Value{}, err
			}
			acc.Fold(val)
		}
	}
	return acc.Result(v, int64(len(ev.group))), nil
}

// materializeVector evaluates the expression for every row of the group into
// a freshly allocated vector, recursively materialising the operands of
// arithmetic expressions first — the column-at-a-time execution model. For
// multiplicative expressions over column data an additional widened copy is
// made, modelling the overflow-guarding type casts the paper identifies as
// the dominant cost of TPC-H Q1 on MonetDB.
func (ev *evaluator) materializeVector(e sqlparser.Expr) ([]sqlsem.Value, error) {
	rows := ev.group
	stats := ev.ex.stats
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		if isArithmeticOp(v.Op) {
			left, err := ev.materializeVector(v.Left)
			if err != nil {
				return nil, err
			}
			right, err := ev.materializeVector(v.Right)
			if err != nil {
				return nil, err
			}
			if v.Op == "*" && ev.ex.guardCasts {
				// Overflow guard: widen both operand vectors before the
				// multiplication, costing an extra copy of each.
				left = widenVector(left, stats)
				right = widenVector(right, stats)
			}
			out := make([]sqlsem.Value, len(rows))
			for i := range rows {
				val, err := sqlsem.Arithmetic(v.Op, left[i], right[i])
				if err != nil {
					return nil, errEval(v, err)
				}
				out[i] = val
			}
			if stats != nil {
				stats.IntermediatesMaterialized += int64(len(out))
			}
			return out, nil
		}
	case *sqlparser.ParenExpr:
		return ev.materializeVector(v.Expr)
	case *sqlparser.ColumnRef:
		out := make([]sqlsem.Value, len(rows))
		child := &evaluator{ex: ev.ex, sc: &scope{rel: ev.sc.rel, outer: ev.sc.outer}}
		for i, ri := range rows {
			child.sc.row = ri
			val, err := child.eval(v)
			if err != nil {
				return nil, err
			}
			out[i] = val
		}
		if stats != nil {
			stats.IntermediatesMaterialized += int64(len(out))
		}
		return out, nil
	case *sqlparser.NumberLit, *sqlparser.StringLit, *sqlparser.DateLit:
		child := &evaluator{ex: ev.ex, sc: ev.sc}
		val, err := child.eval(e)
		if err != nil {
			return nil, err
		}
		out := make([]sqlsem.Value, len(rows))
		for i := range out {
			out[i] = val
		}
		return out, nil
	}
	// Fallback: evaluate row-at-a-time into a materialised vector.
	out := make([]sqlsem.Value, len(rows))
	child := &evaluator{ex: ev.ex, sc: &scope{rel: ev.sc.rel, outer: ev.sc.outer}, group: ev.group}
	for i, ri := range rows {
		child.sc.row = ri
		val, err := (&evaluator{ex: ev.ex, sc: child.sc}).eval(e)
		if err != nil {
			return nil, err
		}
		out[i] = val
	}
	if stats != nil {
		stats.IntermediatesMaterialized += int64(len(out))
	}
	return out, nil
}

func isArithmeticOp(op string) bool {
	switch op {
	case "+", "-", "*", "/", "%":
		return true
	}
	return false
}

// widenVector copies a vector into its "wider" representation (floats),
// accounting the copy as materialised intermediates.
func widenVector(in []sqlsem.Value, stats *vexec.Stats) []sqlsem.Value {
	out := make([]sqlsem.Value, len(in))
	for i, v := range in {
		if v.IsNull() {
			out[i] = v
			continue
		}
		if v.Kind == sqlsem.KindString || v.Kind == sqlsem.KindDate {
			out[i] = v
			continue
		}
		out[i] = sqlsem.NewFloat(v.Float())
	}
	if stats != nil {
		stats.IntermediatesMaterialized += int64(len(out))
		stats.GuardCasts += int64(len(out))
	}
	return out
}
