package engine

import (
	"testing"
	"testing/quick"

	"sqalpel/internal/sqlsem"
)

func TestValueConstructorsAndConversions(t *testing.T) {
	if !sqlsem.Null().IsNull() {
		t.Error("Null should be null")
	}
	if sqlsem.NewInt(42).Int() != 42 || sqlsem.NewInt(42).Float() != 42 {
		t.Error("int conversions wrong")
	}
	if sqlsem.NewFloat(2.5).Float() != 2.5 || sqlsem.NewFloat(2.5).Int() != 2 {
		t.Error("float conversions wrong")
	}
	if sqlsem.NewString("abc").String() != "abc" {
		t.Error("string round trip wrong")
	}
	if !sqlsem.NewBool(true).Bool() || sqlsem.NewBool(false).Bool() {
		t.Error("bool wrong")
	}
	if sqlsem.Null().Bool() {
		t.Error("null must not be truthy")
	}
	if sqlsem.NewString("3.5").Float() != 3.5 {
		t.Error("string to float conversion wrong")
	}
}

func TestCompareAndEqual(t *testing.T) {
	cases := []struct {
		a, b sqlsem.Value
		want int
	}{
		{sqlsem.NewInt(1), sqlsem.NewInt(2), -1},
		{sqlsem.NewInt(2), sqlsem.NewInt(2), 0},
		{sqlsem.NewFloat(2.5), sqlsem.NewInt(2), 1},
		{sqlsem.NewString("apple"), sqlsem.NewString("banana"), -1},
		{sqlsem.NewDate(100), sqlsem.NewDate(99), 1},
		{sqlsem.NewInt(5), sqlsem.NewFloat(5.0), 0},
		{sqlsem.Null(), sqlsem.NewInt(1), -1},
		{sqlsem.Null(), sqlsem.Null(), 0},
	}
	for _, c := range cases {
		if got := sqlsem.Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if sqlsem.Equal(sqlsem.Null(), sqlsem.Null()) {
		t.Error("NULL = NULL must be false in SQL semantics")
	}
	if !sqlsem.Equal(sqlsem.NewInt(3), sqlsem.NewFloat(3)) {
		t.Error("3 should equal 3.0")
	}
}

func TestArithmetic(t *testing.T) {
	check := func(op string, a, b sqlsem.Value, want sqlsem.Value) {
		t.Helper()
		got, err := sqlsem.Arithmetic(op, a, b)
		if err != nil {
			t.Fatalf("Arithmetic(%s) error: %v", op, err)
		}
		if got.Kind != want.Kind || got.String() != want.String() {
			t.Errorf("Arithmetic(%v %s %v) = %v, want %v", a, op, b, got, want)
		}
	}
	check("+", sqlsem.NewInt(2), sqlsem.NewInt(3), sqlsem.NewInt(5))
	check("*", sqlsem.NewInt(4), sqlsem.NewInt(5), sqlsem.NewInt(20))
	check("-", sqlsem.NewFloat(1.5), sqlsem.NewFloat(0.5), sqlsem.NewFloat(1))
	check("/", sqlsem.NewInt(10), sqlsem.NewInt(4), sqlsem.NewFloat(2.5))
	check("/", sqlsem.NewInt(10), sqlsem.NewInt(5), sqlsem.NewInt(2))
	check("%", sqlsem.NewInt(10), sqlsem.NewInt(3), sqlsem.NewInt(1))
	check("+", sqlsem.NewDate(10), sqlsem.NewInt(5), sqlsem.NewDate(15))
	check("-", sqlsem.NewDate(10), sqlsem.NewDate(3), sqlsem.NewInt(7))
	check("||", sqlsem.NewString("a"), sqlsem.NewString("b"), sqlsem.NewString("ab"))

	if v, _ := sqlsem.Arithmetic("/", sqlsem.NewInt(1), sqlsem.NewInt(0)); !v.IsNull() {
		t.Error("division by zero should be NULL")
	}
	if v, _ := sqlsem.Arithmetic("+", sqlsem.Null(), sqlsem.NewInt(1)); !v.IsNull() {
		t.Error("NULL arithmetic should be NULL")
	}
	if _, err := sqlsem.Arithmetic("*", sqlsem.NewString("x"), sqlsem.NewInt(1)); err == nil {
		t.Error("string multiplication should error")
	}
}

func TestDates(t *testing.T) {
	d, err := sqlsem.ParseDate("1998-12-01")
	if err != nil {
		t.Fatal(err)
	}
	if sqlsem.FormatDate(d) != "1998-12-01" {
		t.Errorf("date round trip = %s", sqlsem.FormatDate(d))
	}
	y, m, day := sqlsem.DateParts(d)
	if y != 1998 || m != 12 || day != 1 {
		t.Errorf("DateParts = %d-%d-%d", y, m, day)
	}
	minus90, err := sqlsem.AddInterval(sqlsem.NewDate(d), -90, "DAY")
	if err != nil {
		t.Fatal(err)
	}
	if minus90.String() != "1998-09-02" {
		t.Errorf("1998-12-01 - 90 days = %s", minus90.String())
	}
	plus3m, _ := sqlsem.AddInterval(sqlsem.NewDate(sqlsem.MustParseDate("1993-07-01")), 3, "MONTH")
	if plus3m.String() != "1993-10-01" {
		t.Errorf("+3 months = %s", plus3m.String())
	}
	plus1y, _ := sqlsem.AddInterval(sqlsem.NewDate(sqlsem.MustParseDate("1994-01-01")), 1, "YEAR")
	if plus1y.String() != "1995-01-01" {
		t.Errorf("+1 year = %s", plus1y.String())
	}
	if _, err := sqlsem.ParseDate("not-a-date"); err == nil {
		t.Error("invalid date should fail")
	}
	if _, err := sqlsem.AddInterval(sqlsem.NewDate(d), 1, "HOUR"); err == nil {
		t.Error("unknown interval unit should fail")
	}
}

func TestDatePropertyRoundTrip(t *testing.T) {
	f := func(n uint16) bool {
		days := int64(n) // 0 .. ~179 years after 1970 stays in range
		return sqlsem.MustParseDate(sqlsem.FormatDate(days)) == days
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"ECONOMY ANODIZED STEEL", "%BRASS", false},
		{"LARGE POLISHED BRASS", "%BRASS", true},
		{"PROMO BURNISHED COPPER", "PROMO%", true},
		{"MEDIUM POLISHED TIN", "MEDIUM POLISHED%", true},
		{"standard", "st_ndard", true},
		{"standard", "st_ndXrd", false},
		{"forest green thing", "forest%", true},
		{"a special request here", "%special%requests%", false},
		{"a special requests here", "%special%requests%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "abc", true},
		{"abc", "ab", false},
	}
	for _, c := range cases {
		if got := sqlsem.Like(c.s, c.p); got != c.want {
			t.Errorf("Like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestValueKeyDistinguishesKinds(t *testing.T) {
	if string(sqlsem.AppendKey(nil, sqlsem.NewInt(1))) == string(sqlsem.AppendKey(nil, sqlsem.NewString("1"))) {
		t.Error("int 1 and string '1' must have different keys")
	}
	if string(sqlsem.AppendKey(nil, sqlsem.NewInt(5))) != string(sqlsem.AppendKey(nil, sqlsem.NewFloat(5))) {
		t.Error("numeric 5 and 5.0 should share a key for joins")
	}
	if string(sqlsem.AppendKey(nil, sqlsem.NewDate(3))) == string(sqlsem.AppendKey(nil, sqlsem.NewInt(3))) {
		t.Error("date and int keys should differ")
	}
}

func TestTableSchemaEnforcement(t *testing.T) {
	tbl := NewTable("t",
		Column{Name: "a", Type: TypeInt},
		Column{Name: "b", Type: TypeString},
	)
	if err := tbl.AppendRow(sqlsem.NewInt(1), sqlsem.NewString("x")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(sqlsem.NewInt(1)); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := tbl.AppendRow(sqlsem.NewString("bad"), sqlsem.NewString("x")); err == nil {
		t.Error("type mismatch should fail")
	}
	if err := tbl.AppendRow(sqlsem.Null(), sqlsem.Null()); err != nil {
		t.Errorf("nulls should be accepted: %v", err)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", tbl.NumRows())
	}
	if tbl.ColumnIndex("B") != 1 || tbl.ColumnIndex("missing") != -1 {
		t.Error("column index lookup wrong")
	}
	row := tbl.Row(0)
	if row[0].I != 1 || row[1].S != "x" {
		t.Errorf("Row(0) = %v", row)
	}
	if tbl.EstimatedBytes() <= 0 {
		t.Error("estimated bytes should be positive")
	}
}

func TestDatabaseOperations(t *testing.T) {
	db := NewDatabase("test")
	db.AddTable(NewTable("alpha", Column{Name: "x", Type: TypeInt}))
	db.AddTable(NewTable("beta", Column{Name: "y", Type: TypeInt}))
	if db.Table("ALPHA") == nil {
		t.Error("table lookup should be case insensitive")
	}
	if db.Table("gamma") != nil {
		t.Error("unknown table should be nil")
	}
	tables := db.Tables()
	if len(tables) != 2 || tables[0].Name != "alpha" {
		t.Errorf("Tables() = %v", tables)
	}
	if db.Describe() == "" {
		t.Error("Describe should render something")
	}
}
