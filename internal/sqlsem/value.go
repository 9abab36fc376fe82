package sqlsem

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime value kinds.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	default:
		return "unknown"
	}
}

// Value is a runtime SQL value. Only the payload field matching Kind is
// meaningful: I for bools (0/1), ints and dates (days since 1970-01-01),
// F for floats, S for strings.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// NewBool wraps a boolean.
func NewBool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// NewInt wraps an integer.
func NewInt(i int64) Value { return Value{Kind: KindInt, I: i} }

// NewFloat wraps a float.
func NewFloat(f float64) Value { return Value{Kind: KindFloat, F: f} }

// NewString wraps a string.
func NewString(s string) Value { return Value{Kind: KindString, S: s} }

// NewDate wraps a date given as days since the Unix epoch.
func NewDate(days int64) Value { return Value{Kind: KindDate, I: days} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Bool returns the two-valued truth: NULL and non-numeric values are
// false. Inside an expression use Lift instead so UNKNOWN propagates.
func (v Value) Bool() bool {
	switch v.Kind {
	case KindBool, KindInt, KindDate:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	default:
		return false
	}
}

// Float converts the value to float64 for numeric operations.
func (v Value) Float() float64 {
	switch v.Kind {
	case KindInt, KindBool, KindDate:
		return float64(v.I)
	case KindFloat:
		return v.F
	case KindString:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	default:
		return 0
	}
}

// Int converts the value to int64.
func (v Value) Int() int64 {
	switch v.Kind {
	case KindInt, KindBool, KindDate:
		return v.I
	case KindFloat:
		return int64(v.F)
	case KindString:
		i, _ := strconv.ParseInt(v.S, 10, 64)
		return i
	default:
		return 0
	}
}

// String renders the value the way result tables print it.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'f', -1, 64)
	case KindString:
		return v.S
	case KindDate:
		return FormatDate(v.I)
	default:
		return "?"
	}
}

// ParseNumber parses a numeric literal: integers stay exact, everything
// else becomes a float. The float syntax is strict — the whole literal must
// parse — and a malformed literal is an error the caller decides about.
func ParseNumber(s string) (Value, error) {
	if !strings.ContainsAny(s, ".eE") {
		var n int64
		neg := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if i == 0 && (c == '-' || c == '+') {
				neg = c == '-'
				continue
			}
			if c < '0' || c > '9' {
				return parseFloat(s)
			}
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
		return NewInt(n), nil
	}
	return parseFloat(s)
}

func parseFloat(s string) (Value, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return Value{}, err
	}
	return NewFloat(f), nil
}

// isNumeric reports whether the value participates in numeric arithmetic.
func (v Value) isNumeric() bool {
	return v.Kind == KindInt || v.Kind == KindFloat || v.Kind == KindBool
}

// Lift lifts a value into the ternary domain: NULL is UNKNOWN, everything
// else its two-valued truth.
func Lift(v Value) Tri {
	if v.IsNull() {
		return Unknown
	}
	return Of(v.Bool())
}

// Lower lowers a ternary truth value into the value domain: UNKNOWN
// becomes NULL. Predicate consumers collapse that NULL with Bool (or
// Lift(v).Accept()); a predicate in projection position surfaces it.
func Lower(t Tri) Value {
	if !t.Known() {
		return Null()
	}
	return NewBool(t == True)
}

// Compare returns -1, 0 or 1 comparing a and b with SQL ordering
// semantics: NULL sorts below everything, strings compare
// lexicographically only against strings, everything else (dates
// included) compares in the float64 domain.
func Compare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if a.Kind == KindString && b.Kind == KindString {
		return strings.Compare(a.S, b.S)
	}
	af, bf := a.Float(), b.Float()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// Equal reports SQL equality; comparisons involving NULL are false.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// CompareValues applies a comparison operator to two values: UNKNOWN when
// either is NULL, otherwise CompareOp over Compare(a, b).
func CompareValues(op string, a, b Value) Tri {
	return CompareNullable(op, a.IsNull() || b.IsNull(), Compare(a, b))
}

// Key-class prefix bytes of AppendKey: kinds must never collide. NULL
// encodes as 0x00 'N'.
const (
	KeyString byte = 0x01
	KeyDate   byte = 0x02
	KeyNumber byte = 0x03
)

// AppendKey appends the hash-key encoding of v, used for grouping, joins,
// DISTINCT, set operations and IN sets. Unlike String it keeps the kind
// class separate so 1 and '1' do not collide, but normalises int-valued
// floats to their integer digits so mixed numeric keys match. NULL has a
// key of its own, so NULL groups with NULL.
func AppendKey(buf []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(buf, 0x00, 'N')
	case KindString:
		return append(append(buf, KeyString), v.S...)
	case KindDate:
		return strconv.AppendInt(append(buf, KeyDate), v.I, 10)
	case KindFloat:
		buf = append(buf, KeyNumber)
		if v.F == float64(int64(v.F)) {
			return strconv.AppendInt(buf, int64(v.F), 10)
		}
		return strconv.AppendFloat(buf, v.F, 'g', -1, 64)
	default:
		return strconv.AppendInt(append(buf, KeyNumber), v.I, 10)
	}
}

// Arithmetic performs +, -, *, /, % and || with numeric promotion. Date
// plus or minus a number treats the number as days; date minus date is a
// day count. Integer operands stay exact, including division when it
// divides evenly. Any NULL operand yields NULL; division by zero yields
// NULL.
func Arithmetic(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if a.Kind == KindDate && b.isNumeric() {
		switch op {
		case "+":
			return NewDate(a.I + b.Int()), nil
		case "-":
			return NewDate(a.I - b.Int()), nil
		}
	}
	if a.Kind == KindDate && b.Kind == KindDate && op == "-" {
		return NewInt(a.I - b.I), nil
	}
	if a.Kind == KindString || b.Kind == KindString {
		if op == "||" {
			return NewString(a.String() + b.String()), nil
		}
		return Value{}, fmt.Errorf("cannot apply %q to %s and %s", op, a.Kind, b.Kind)
	}
	if op == "||" {
		return NewString(a.String() + b.String()), nil
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		switch op {
		case "+":
			return NewInt(a.I + b.I), nil
		case "-":
			return NewInt(a.I - b.I), nil
		case "*":
			return NewInt(a.I * b.I), nil
		case "%":
			if b.I == 0 {
				return Null(), nil
			}
			return NewInt(a.I % b.I), nil
		case "/":
			if b.I == 0 {
				return Null(), nil
			}
			if a.I%b.I == 0 {
				return NewInt(a.I / b.I), nil
			}
			return NewFloat(float64(a.I) / float64(b.I)), nil
		}
	}
	af, bf := a.Float(), b.Float()
	switch op {
	case "+":
		return NewFloat(af + bf), nil
	case "-":
		return NewFloat(af - bf), nil
	case "*":
		return NewFloat(af * bf), nil
	case "/":
		if bf == 0 {
			return Null(), nil
		}
		return NewFloat(af / bf), nil
	case "%":
		if bf == 0 {
			return Null(), nil
		}
		return NewFloat(float64(int64(af) % int64(bf))), nil
	default:
		return Value{}, fmt.Errorf("unknown arithmetic operator %q", op)
	}
}

// Negate is unary minus: NULL stays NULL, integers stay exact, everything
// else negates in the float64 domain.
func Negate(v Value) Value {
	switch v.Kind {
	case KindNull:
		return v
	case KindInt:
		return NewInt(-v.I)
	default:
		return NewFloat(-v.Float())
	}
}

// epoch is the reference day zero for date values.
var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// ParseDate converts an ISO yyyy-mm-dd string into days since the epoch.
func ParseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("invalid date %q: %w", s, err)
	}
	return int64(t.Sub(epoch).Hours() / 24), nil
}

// MustParseDate is ParseDate for literals known to be valid; it panics on
// malformed input and exists for generators and tests.
func MustParseDate(s string) int64 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// FormatDate renders days since the epoch as yyyy-mm-dd.
func FormatDate(days int64) string {
	return epoch.AddDate(0, 0, int(days)).Format("2006-01-02")
}

// DateParts returns the year, month and day of a date value given in days
// since the epoch.
func DateParts(days int64) (year, month, day int) {
	t := epoch.AddDate(0, 0, int(days))
	return t.Year(), int(t.Month()), t.Day()
}

// AddInterval is date ± INTERVAL: it adds n units (DAY, MONTH or YEAR) to
// a date value. NULL stays NULL; any other non-date operand errors.
func AddInterval(v Value, n int64, unit string) (Value, error) {
	switch {
	case v.IsNull():
		return v, nil
	case v.Kind != KindDate:
		return Value{}, fmt.Errorf("interval arithmetic requires a date, got %s", v.Kind)
	}
	t := epoch.AddDate(0, 0, int(v.I))
	switch strings.ToUpper(unit) {
	case "DAY":
		t = t.AddDate(0, 0, int(n))
	case "MONTH":
		t = t.AddDate(0, int(n), 0)
	case "YEAR":
		t = t.AddDate(int(n), 0, 0)
	default:
		return Value{}, fmt.Errorf("unknown interval unit %q", unit)
	}
	return NewDate(int64(t.Sub(epoch).Hours() / 24)), nil
}

// Like reports whether s matches the SQL LIKE pattern p, with % matching
// any run of characters and _ exactly one (greedy two-pointer matcher).
// LikeValues wraps it in the ternary NULL handling.
func Like(s, p string) bool {
	var si, pi int
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starP = pi
			starS = si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// LikeValues is v LIKE pattern, or NOT LIKE when negate, over values:
// UNKNOWN when either is NULL, otherwise Like over their renderings.
func LikeValues(v, pattern Value, negate bool) Tri {
	eitherNull := v.IsNull() || pattern.IsNull()
	return LikeTri(eitherNull, !eitherNull && Like(v.String(), pattern.String()), negate)
}
