// Package engine is the sqlsemroute fixture for the interpreters: the
// two-valued expression shapes over sqlsem.Value the analyzer must flag,
// plus the shapes it must leave alone.
package engine

import "internal/sqlsem"

// rawEq is the NULL-blind, representation-sensitive shape: struct equality
// says NULL == NULL and 1 != 1.0.
func rawEq(a, b sqlsem.Value) bool {
	return a == b // want `raw == comparison of sqlsem.Value`
}

func rawNeq(a, b sqlsem.Value) bool {
	return a != b // want `raw != comparison of sqlsem.Value`
}

// collapsedAnd combines predicates after collapsing each to a bool,
// losing UNKNOWN before the connective.
func collapsedAnd(a, b sqlsem.Value) bool {
	return a.Bool() && b.Bool() // want `&& over Value.Bool\(\) collapses NULL to false`
}

func collapsedOr(a sqlsem.Value, other bool) bool {
	return other || a.Bool() // want `\|\| over Value.Bool\(\) collapses NULL to false`
}

// collapsedNot turns UNKNOWN into TRUE.
func collapsedNot(a sqlsem.Value) bool {
	return !a.Bool() // want `! over Value.Bool\(\) collapses NULL to false`
}

// kindCompare compares the discriminants, not the values: Kind has its own
// two-valued identity and is exempt.
func kindCompare(a, b sqlsem.Value) bool {
	return a.Kind == b.Kind
}

// plainBools: connectives over ordinary booleans are not the analyzer's
// business.
func plainBools(x, y bool) bool {
	return x && !y
}

// consumerCollapse is the blessed boundary shape, waived with a reason.
func consumerCollapse(conjuncts []sqlsem.Value) bool {
	for _, v := range conjuncts {
		//lint:nullsafe consumer collapse: the filter boundary rejects UNKNOWN rows, per SQL semantics
		if !v.Bool() {
			return false
		}
	}
	return true
}
