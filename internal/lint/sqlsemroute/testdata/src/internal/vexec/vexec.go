// Package vexec is the sqlsemroute fixture for the batch and compiled
// executor's boxed values: the compiled filter loop's consumer collapse,
// written raw (flagged) and through the ternary lift (clean).
package vexec

import "internal/sqlsem"

// rowFn is a compiled expression evaluated at one row.
type rowFn func(i int) sqlsem.Value

// passRaw collapses each conjunct with a bare !Bool(): the shape the
// compiled filter loop had before it routed through sqlsem.
func passRaw(conds []rowFn, i int) bool {
	for _, c := range conds {
		if !c(i).Bool() { // want `! over Value.Bool\(\) collapses NULL to false`
			return false
		}
	}
	return true
}

// pairsRaw folds pair predicates with && over Bool().
func pairsRaw(pass []bool, fn rowFn) {
	for k := range pass {
		pass[k] = pass[k] && fn(k).Bool() // want `&& over Value.Bool\(\) collapses NULL to false`
	}
}

// sameValue compares boxed values as structs.
func sameValue(a, b sqlsem.Value) bool {
	return a == b // want `raw == comparison of sqlsem.Value`
}

// passLifted is the blessed form: lift to a truth value, collapse with
// Accept at the consumer.
func passLifted(conds []rowFn, i int) bool {
	for _, c := range conds {
		if !sqlsem.Lift(c(i)).Accept() {
			return false
		}
	}
	return true
}
