package table

import (
	"math"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := S("hello"); v.Str() != "hello" || v.IsNull() || v.Kind() != String {
		t.Errorf("S: got %v", v)
	}
	if v := I(42); v.Int() != 42 || v.Float() != 42 {
		t.Errorf("I: got %v", v)
	}
	if v := F(3.5); v.Float() != 3.5 || v.Int() != 3 {
		t.Errorf("F: got %v", v)
	}
	d := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	if v := D(d); !v.Date().Equal(d) || v.Str() != "2008-10-01" {
		t.Errorf("D: got %v", v)
	}
	if v := B(true); !v.Bool() || v.Int() != 1 {
		t.Errorf("B: got %v", v)
	}
}

func TestNaNFloatIsNull(t *testing.T) {
	v := F(math.NaN())
	if !v.IsNull() {
		t.Fatal("F(NaN) should be null")
	}
	if !math.IsNaN(v.Float()) {
		t.Fatal("null Float() should be NaN")
	}
}

func TestNullSemantics(t *testing.T) {
	n := Null(String)
	if !n.IsNull() {
		t.Fatal("Null should be null")
	}
	if n.Equal(n) {
		t.Fatal("null must not equal null (SQL semantics)")
	}
	if n.Equal(S("")) || S("").Equal(n) {
		t.Fatal("null must not equal empty string")
	}
	if n.String() != "NULL" {
		t.Errorf("null String() = %q", n.String())
	}
	// Empty string is a valid value distinct from null.
	if S("").IsNull() {
		t.Fatal("S(\"\") must not be null")
	}
}

func TestValueEqualCrossKind(t *testing.T) {
	if !I(5).Equal(F(5.0)) {
		t.Error("int 5 should equal float 5.0")
	}
	if I(5).Equal(S("5")) {
		t.Error("int 5 must not equal string \"5\"")
	}
	if !S("x").Equal(S("x")) || S("x").Equal(S("y")) {
		t.Error("string equality broken")
	}
	d := time.Date(2020, 1, 2, 0, 0, 0, 0, time.UTC)
	if !D(d).Equal(D(d)) {
		t.Error("date equality broken")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
		null bool
		want string
	}{
		{"hello", String, false, "hello"},
		{"", String, true, ""},
		{"NA", String, true, ""},
		{"n/a", Int, true, ""},
		{"NaN", Float, true, ""},
		{"null", Date, true, ""},
		{"-", Float, true, ""},
		{"42", Int, false, "42"},
		{" 42 ", Int, false, "42"},
		{"3.25", Float, false, "3.25"},
		{"2008-10-01", Date, false, "2008-10-01"},
		{"10/1/08", Date, false, "2008-10-01"},
		{"1997-07-01", Date, false, "1997-07-01"},
		{"true", Bool, false, "true"},
		{"TRUE", Bool, false, "true"},
	}
	for _, c := range cases {
		v, err := Parse(c.in, c.kind)
		if err != nil {
			t.Errorf("Parse(%q,%v): %v", c.in, c.kind, err)
			continue
		}
		if v.IsNull() != c.null {
			t.Errorf("Parse(%q,%v): null=%v want %v", c.in, c.kind, v.IsNull(), c.null)
			continue
		}
		if !c.null && v.Str() != c.want {
			t.Errorf("Parse(%q,%v) = %q want %q", c.in, c.kind, v.Str(), c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("abc", Int); err == nil {
		t.Error("Parse(abc, Int) should error")
	}
	if _, err := Parse("abc", Float); err == nil {
		t.Error("Parse(abc, Float) should error")
	}
	if _, err := Parse("not-a-date", Date); err == nil {
		t.Error("Parse(not-a-date, Date) should error")
	}
	if _, err := Parse("maybe", Bool); err == nil {
		t.Error("Parse(maybe, Bool) should error")
	}
}

func TestParseDateFormats(t *testing.T) {
	for _, s := range []string{"2008-10-01", "10/1/08", "10/01/2008", "2008/10/01"} {
		d, err := ParseDate(s)
		if err != nil {
			t.Errorf("ParseDate(%q): %v", s, err)
			continue
		}
		if d.Year() != 2008 || d.Month() != 10 || d.Day() != 1 {
			t.Errorf("ParseDate(%q) = %v", s, d)
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{String: "string", Int: "int", Float: "float", Date: "date", Bool: "bool"}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("Kind(%d).String() = %q want %q", int(k), k.String(), w)
		}
	}
}

// wideValue is the cell layout Value replaced: every kind's field side
// by side, 80 bytes. It is the oracle the four-word Value must answer
// like, accessor by accessor.
type wideValue struct {
	kind  Kind
	valid bool
	s     string
	i     int64
	f     float64
	t     time.Time
	b     bool
}

func (v wideValue) Str() string {
	if !v.valid {
		return ""
	}
	switch v.kind {
	case String:
		return v.s
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case Date:
		return v.t.Format("2006-01-02")
	case Bool:
		return strconv.FormatBool(v.b)
	}
	return ""
}

func (v wideValue) Int() int64 {
	if !v.valid {
		return 0
	}
	switch v.kind {
	case Int:
		return v.i
	case Float:
		return int64(v.f)
	case Bool:
		if v.b {
			return 1
		}
	}
	return 0
}

func (v wideValue) Float() float64 {
	if !v.valid {
		return math.NaN()
	}
	switch v.kind {
	case Float:
		return v.f
	case Int:
		return float64(v.i)
	case Bool:
		if v.b {
			return 1
		}
		return 0
	}
	return math.NaN()
}

func (v wideValue) Date() time.Time {
	if !v.valid || v.kind != Date {
		return time.Time{}
	}
	return v.t
}

func (v wideValue) Bool() bool { return v.valid && v.kind == Bool && v.b }

func (v wideValue) Equal(o wideValue) bool {
	if !v.valid || !o.valid {
		return false
	}
	if v.kind != o.kind {
		if (v.kind == Int || v.kind == Float) && (o.kind == Int || o.kind == Float) {
			return v.Float() == o.Float()
		}
		return false
	}
	switch v.kind {
	case String:
		return v.s == o.s
	case Int:
		return v.i == o.i
	case Float:
		return v.f == o.f
	case Date:
		return v.t.Equal(o.t)
	case Bool:
		return v.b == o.b
	}
	return false
}

func (v wideValue) String() string {
	if !v.valid {
		return "NULL"
	}
	return v.Str()
}

// oracleCases pairs each value with its wide twin: every kind's null,
// the extremes of each kind, and every date layout Parse accepts.
func oracleCases(t *testing.T) []struct {
	v Value
	w wideValue
} {
	var cs []struct {
		v Value
		w wideValue
	}
	add := func(v Value, w wideValue) {
		cs = append(cs, struct {
			v Value
			w wideValue
		}{v, w})
	}
	for _, k := range []Kind{String, Int, Float, Date, Bool} {
		add(Null(k), wideValue{kind: k})
	}
	for _, s := range []string{"", "hello", "ünïcödé", "NULL"} {
		add(S(s), wideValue{kind: String, valid: true, s: s})
	}
	for _, i := range []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64} {
		add(I(i), wideValue{kind: Int, valid: true, i: i})
	}
	add(F(math.NaN()), wideValue{kind: Float})
	for _, f := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, 3.5, -2.75, 42, 1e300} {
		add(F(f), wideValue{kind: Float, valid: true, f: f})
	}
	for _, d := range []time.Time{
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1, 1, 1, 13, 4, 5, 0, time.UTC),
		time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC),
	} {
		add(D(d), wideValue{kind: Date, valid: true, t: d})
	}
	at := time.Date(2008, 10, 1, 15, 4, 5, 0, time.UTC)
	for _, layout := range dateFormats {
		text := at.Format(layout)
		v, err := Parse(text, Date)
		d, derr := ParseDate(text)
		if err != nil || derr != nil {
			t.Fatalf("Parse(%q): %v, %v", text, err, derr)
		}
		add(v, wideValue{kind: Date, valid: true, t: d})
	}
	add(B(true), wideValue{kind: Bool, valid: true, b: true})
	add(B(false), wideValue{kind: Bool, valid: true})
	return cs
}

// TestValueAnswersLikeWideLayout: for every case, every accessor of the
// four-word Value answers as the 80-byte layout did, and so does Equal
// over every pair.
func TestValueAnswersLikeWideLayout(t *testing.T) {
	cs := oracleCases(t)
	sameFloat := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for _, c := range cs {
		v, w := c.v, c.w
		if v.Kind() != w.kind || v.IsNull() != !w.valid || v.Str() != w.Str() || v.Int() != w.Int() ||
			!sameFloat(v.Float(), w.Float()) || v.Date() != w.Date() || v.Bool() != w.Bool() || v.String() != w.String() {
			t.Errorf("%v: kind %v null %v str %q int %d float %v date %v bool %v; wide %v %v %q %d %v %v %v",
				w, v.Kind(), v.IsNull(), v.Str(), v.Int(), v.Float(), v.Date(), v.Bool(),
				w.kind, !w.valid, w.Str(), w.Int(), w.Float(), w.Date(), w.Bool())
		}
		for _, o := range cs {
			if got, want := v.Equal(o.v), w.Equal(o.w); got != want {
				t.Errorf("%v (%v) Equal %v (%v) = %v, wide %v", w, w.kind, o.w, o.w.kind, got, want)
			}
		}
	}
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Errorf("Value is %d bytes, want 32: a cell is four words", n)
	}
}

// TestNonUTCDateKeepsWallClock: a date in another zone keeps its wall
// clock, so its text and year are unchanged, and it equals the UTC date
// of the same wall clock rather than the same instant.
func TestNonUTCDateKeepsWallClock(t *testing.T) {
	east := time.FixedZone("east", 5*3600)
	d := time.Date(2020, 1, 2, 3, 0, 0, 0, east)
	v := D(d)
	if v.Str() != "2020-01-02" || v.Date().Year() != 2020 {
		t.Errorf("D(%v): Str %q, year %d", d, v.Str(), v.Date().Year())
	}
	if wall := D(time.Date(2020, 1, 2, 3, 0, 0, 0, time.UTC)); !v.Equal(wall) {
		t.Errorf("D(%v) should equal the UTC date of its wall clock", d)
	}
	if v.Equal(D(d.UTC())) || !D(d.UTC()).Date().Before(v.Date()) {
		t.Errorf("D(%v) compares as its instant, not its wall clock", d)
	}
}
