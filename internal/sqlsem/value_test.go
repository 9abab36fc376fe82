package sqlsem

import "testing"

func TestLiftLower(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want Tri
	}{
		{Null(), Unknown},
		{NewBool(true), True},
		{NewBool(false), False},
		{NewInt(2), True},
		{NewFloat(0), False},
		{NewString("x"), False},
	} {
		if got := Lift(c.v); got != c.want {
			t.Errorf("Lift(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if !Lower(Unknown).IsNull() || !Lower(True).Bool() || Lower(False).Bool() || Lower(False).IsNull() {
		t.Error("Lower must map UNKNOWN to NULL and TRUE/FALSE to booleans")
	}
}

func TestCompareValuesAndLikeValues(t *testing.T) {
	if got := CompareValues("=", Null(), Null()); got != Unknown {
		t.Errorf("NULL = NULL is %v, want UNKNOWN", got)
	}
	if got := CompareValues("<", NewInt(1), NewFloat(1.5)); got != True {
		t.Errorf("1 < 1.5 is %v, want TRUE", got)
	}
	if got := LikeValues(NewString("brass"), Null(), true); got != Unknown {
		t.Errorf("x NOT LIKE NULL is %v, want UNKNOWN", got)
	}
	if got := LikeValues(NewInt(15), NewString("1%"), false); got != True {
		t.Errorf("15 LIKE '1%%' is %v, want TRUE (values match by rendering)", got)
	}
}

func TestAppendKeyClasses(t *testing.T) {
	key := func(v Value) string { return string(AppendKey(nil, v)) }
	if key(NewInt(1)) == key(NewString("1")) || key(NewDate(3)) == key(NewInt(3)) {
		t.Error("kinds of different classes must not share a key")
	}
	if key(NewInt(5)) != key(NewFloat(5)) || key(NewBool(true)) != key(NewInt(1)) {
		t.Error("numeric values that compare equal must share a key")
	}
	if key(Null()) != key(Value{}) || key(Null()) == key(NewString("")) {
		t.Error("NULL has one key of its own")
	}
}

func TestParseNumberAndNegate(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Value
	}{
		{"42", NewInt(42)},
		{"-7", NewInt(-7)},
		{"2.5", NewFloat(2.5)},
		{"1e3", NewFloat(1000)},
	} {
		if got, err := ParseNumber(c.in); err != nil || got != c.want {
			t.Errorf("ParseNumber(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"1.2.3", "12a", "1e999"} {
		if _, err := ParseNumber(bad); err == nil {
			t.Errorf("ParseNumber(%q) should fail", bad)
		}
	}
	if Negate(NewInt(3)) != NewInt(-3) || Negate(NewFloat(1.5)) != NewFloat(-1.5) || !Negate(Null()).IsNull() {
		t.Error("Negate must keep integers exact and NULL NULL")
	}
}

func TestCastExtractSubstring(t *testing.T) {
	day := NewDate(MustParseDate("1998-12-01"))
	for _, c := range []struct {
		v    Value
		typ  string
		want string
	}{
		{NewFloat(2.7), "INTEGER", "2"},
		{NewInt(3), "double", "3"},
		{day, "varchar", "1998-12-01"},
		{NewString("1995-03-15"), "date", "1995-03-15"},
		{Null(), "no-such-type", "NULL"},
	} {
		got, err := Cast(c.v, c.typ)
		if err != nil || got.String() != c.want {
			t.Errorf("CAST(%v AS %s) = %v, %v; want %s", c.v, c.typ, got, err, c.want)
		}
	}
	if _, err := Cast(NewInt(1), "blob"); err == nil {
		t.Error("unknown cast target over a non-NULL value must fail")
	}
	if y, err := Extract("YEAR", day); err != nil || y.I != 1998 {
		t.Errorf("EXTRACT(YEAR) = %v, %v", y, err)
	}
	if _, err := Extract("YEAR", NewInt(1)); err == nil {
		t.Error("EXTRACT over a non-date must fail")
	}
	for _, c := range []struct {
		vals []Value
		want string
	}{
		{[]Value{NewString("13-ABC"), NewInt(1), NewInt(2)}, "13"},
		{[]Value{NewString("abc"), NewInt(0)}, "abc"},
		{[]Value{NewString("abc"), NewInt(3), NewInt(-1)}, ""},
		{[]Value{NewString("abc"), NewInt(9), NewInt(2)}, ""},
		{[]Value{Null(), NewInt(1)}, "NULL"},
	} {
		if got := Substring(c.vals); got.String() != c.want {
			t.Errorf("SUBSTRING%v = %q, want %q", c.vals, got, c.want)
		}
	}
}

func TestFunc(t *testing.T) {
	call := func(name string, args ...Value) Value {
		t.Helper()
		f, err := Func(name, len(args))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return f(args)
	}
	for _, c := range []struct {
		got  Value
		want string
	}{
		{call("abs", NewInt(-4)), "4"},
		{call("abs", NewFloat(-1.5)), "1.5"},
		{call("length", Null()), "4"},
		{call("upper", NewString("ab")), "AB"},
		{call("coalesce", Null(), NewInt(2), NewInt(3)), "2"},
		{call("round", NewFloat(2.345), NewInt(2)), "2.35"},
		{call("round", NewFloat(-2.5)), "-3"},
	} {
		if c.got.String() != c.want {
			t.Errorf("got %v, want %s", c.got, c.want)
		}
	}
	if _, err := Func("abs", 2); err == nil {
		t.Error("abs with two arguments must fail")
	}
	if _, err := Func("nope", 1); err == nil {
		t.Error("unknown function must fail")
	}
}
