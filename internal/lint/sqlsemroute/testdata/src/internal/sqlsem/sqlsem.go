// Package sqlsem is the sqlsemroute fixture's miniature of the real
// internal/sqlsem: the nullable SQL value type, its two-valued Bool and the
// ternary lift the analyzer steers callers towards.
package sqlsem

// Kind discriminates the value representations; KindNull marks SQL NULL.
type Kind int

const (
	KindNull Kind = iota
	KindInt
	KindFloat
)

// Value is the nullable SQL value.
type Value struct {
	Kind Kind
	I    int64
	F    float64
}

// Bool collapses NULL to false — legitimate only at a predicate consumer.
func (v Value) Bool() bool { return v.Kind == KindInt && v.I != 0 }

// Tri is a three-valued truth value.
type Tri uint8

const (
	Unknown Tri = iota
	False
	True
)

// Lift maps NULL to Unknown and everything else to its truth.
func Lift(v Value) Tri {
	switch {
	case v.Kind == KindNull:
		return Unknown
	case v.Bool():
		return True
	default:
		return False
	}
}

// Accept is the predicate-consumer collapse.
func (t Tri) Accept() bool { return t == True }
