package sqlsem

import (
	"fmt"
	"strings"
)

// This file holds the per-row bodies of CAST, EXTRACT, SUBSTRING and the
// scalar functions. Every executor evaluates its operands its own way —
// lazily in the interpreters, a whole batch at a time or as compiled
// closures in vexec — and then applies these to one row's values.

// Cast converts v to the written type typ. The target check follows the
// NULL check, so an unknown target over NULL input does not error.
func Cast(v Value, typ string) (Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch strings.ToLower(typ) {
	case "integer", "int", "bigint", "smallint":
		return NewInt(v.Int()), nil
	case "double", "float", "real", "decimal", "numeric":
		return NewFloat(v.Float()), nil
	case "varchar", "char", "text", "string":
		return NewString(v.String()), nil
	case "date":
		if v.Kind == KindDate {
			return v, nil
		}
		d, err := ParseDate(v.String())
		if err != nil {
			return Value{}, err
		}
		return NewDate(d), nil
	default:
		return Value{}, fmt.Errorf("unsupported cast target %q", typ)
	}
}

// Extract is EXTRACT(unit FROM v) for unit YEAR, MONTH or DAY (any other
// unit reads as DAY). NULL stays NULL; a non-date operand errors.
func Extract(unit string, v Value) (Value, error) {
	switch {
	case v.IsNull():
		return v, nil
	case v.Kind != KindDate:
		return Value{}, fmt.Errorf("EXTRACT requires a date, got %s", v.Kind)
	}
	y, m, d := DateParts(v.I)
	switch unit {
	case "YEAR":
		return NewInt(int64(y)), nil
	case "MONTH":
		return NewInt(int64(m)), nil
	default:
		return NewInt(int64(d)), nil
	}
}

// Substring is SUBSTRING over one row's operands: the string, the 1-based
// start and, when present, the length. A NULL string yields NULL; the
// start and length clamp to the string's bounds.
func Substring(vals []Value) Value {
	if vals[0].IsNull() {
		return vals[0]
	}
	str := vals[0].String()
	from := min(max(int(vals[1].Int())-1, 0), len(str))
	to := len(str)
	if len(vals) > 2 {
		to = max(min(from+int(vals[2].Int()), len(str)), from)
	}
	return NewString(str[from:to])
}

// Func checks a scalar function's name and arity and returns its per-row
// form over one row's argument values.
func Func(name string, nargs int) (func(vals []Value) Value, error) {
	switch name {
	case "abs":
		if nargs != 1 {
			return nil, fmt.Errorf("abs expects 1 argument")
		}
		return func(vals []Value) Value {
			v := vals[0]
			if v.IsNull() {
				return v
			}
			f := v.Float()
			if f < 0 {
				f = -f
			}
			if v.Kind == KindInt {
				return NewInt(int64(f))
			}
			return NewFloat(f)
		}, nil
	case "length", "char_length":
		if nargs != 1 {
			return nil, fmt.Errorf("%s expects 1 argument", name)
		}
		// No NULL check: the length of the rendered value, and NULL
		// renders as the 4-character string "NULL".
		return func(vals []Value) Value {
			return NewInt(int64(len(vals[0].String())))
		}, nil
	case "upper":
		return func(vals []Value) Value {
			return NewString(strings.ToUpper(vals[0].String()))
		}, nil
	case "lower":
		return func(vals []Value) Value {
			return NewString(strings.ToLower(vals[0].String()))
		}, nil
	case "coalesce":
		return func(vals []Value) Value {
			for _, v := range vals {
				if !v.IsNull() {
					return v
				}
			}
			return Null()
		}, nil
	case "round":
		if nargs == 0 {
			return nil, fmt.Errorf("round expects at least 1 argument")
		}
		return func(vals []Value) Value {
			f := vals[0].Float()
			scale := 0
			if len(vals) > 1 {
				scale = int(vals[1].Int())
			}
			mult := 1.0
			for k := 0; k < scale; k++ {
				mult *= 10
			}
			half := 0.5
			if f < 0 {
				half = -0.5
			}
			return NewFloat(float64(int64(f*mult+half)) / mult)
		}, nil
	default:
		return nil, fmt.Errorf("unknown function %q", name)
	}
}
