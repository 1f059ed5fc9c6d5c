// Package table provides the relational substrate for emgo: typed tables
// with schemas, CSV input/output, and the relational operations the EM
// pipeline needs (projection, renaming, selection, joins, key validation,
// sampling). It plays the role that pandas and SQLite play for PyMatcher.
package table

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the logical type of a column.
type Kind uint8

const (
	// String is free text.
	String Kind = iota
	// Int is a 64-bit integer.
	Int
	// Float is a 64-bit float.
	Float
	// Date is a calendar date (no time-of-day component is retained).
	Date
	// Bool is a boolean.
	Bool
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Date:
		return "date"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single cell. The zero Value is null. Values are immutable
// once stored in a table; the setters return new values.
// A cell is four words (32 bytes, one pointer): s holds a string, n an
// int, a float's bits, a bool as 0 or 1 or a date's wall-clock second.
type Value struct {
	s     string
	n     int64
	kind  Kind
	valid bool
}

// Null returns a null value of kind k.
func Null(k Kind) Value { return Value{kind: k} }

// S returns a string value. An empty string is a valid (non-null) value;
// use Null to represent missing data.
func S(s string) Value { return Value{kind: String, valid: true, s: s} }

// I returns an integer value.
func I(i int64) Value { return Value{kind: Int, valid: true, n: i} }

// F returns a float value. NaN is treated as null.
func F(f float64) Value {
	if math.IsNaN(f) {
		return Null(Float)
	}
	return Value{kind: Float, valid: true, n: int64(math.Float64bits(f))}
}

// D returns a date value. It keeps t's wall clock to the second and
// reads it back in UTC: a non-UTC t keeps its Str and year, but Date
// returns that wall clock as a UTC time, so Equal, and Before over two
// Dates, compare wall clocks, not instants. The dates the program makes
// (ParseDate's layouts, the generator's midnights) are UTC to the second
// already.
func D(t time.Time) Value {
	_, off := t.Zone()
	return Value{kind: Date, valid: true, n: t.Unix() + int64(off)}
}

// B returns a boolean value.
func B(b bool) Value {
	v := Value{kind: Bool, valid: true}
	if b {
		v.n = 1
	}
	return v
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is missing.
func (v Value) IsNull() bool { return !v.valid }

// f is a float value's content.
func (v Value) f() float64 { return math.Float64frombits(uint64(v.n)) }

// Str returns the string content. For non-string kinds it returns the
// canonical textual rendering; for null it returns "".
func (v Value) Str() string {
	if !v.valid {
		return ""
	}
	switch v.kind {
	case String:
		return v.s
	case Int:
		return strconv.FormatInt(v.n, 10)
	case Float:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case Date:
		return v.Date().Format("2006-01-02")
	case Bool:
		return strconv.FormatBool(v.n != 0)
	}
	return ""
}

// Int returns the integer content. Floats are truncated. Returns 0 for
// null or non-numeric values.
func (v Value) Int() int64 {
	if !v.valid {
		return 0
	}
	switch v.kind {
	case Int, Bool:
		return v.n
	case Float:
		return int64(v.f())
	}
	return 0
}

// Float returns the numeric content as float64, or NaN when the value is
// null or not numeric.
func (v Value) Float() float64 {
	if !v.valid {
		return math.NaN()
	}
	switch v.kind {
	case Float:
		return v.f()
	case Int, Bool:
		return float64(v.n)
	}
	return math.NaN()
}

// Date returns the time content, or the zero time for null/non-date values.
func (v Value) Date() time.Time {
	if !v.valid || v.kind != Date {
		return time.Time{}
	}
	return time.Unix(v.n, 0).UTC()
}

// Bool returns the boolean content; null and non-bool values yield false.
func (v Value) Bool() bool { return v.valid && v.kind == Bool && v.n != 0 }

// Equal reports whether two values are equal. Nulls are never equal to
// anything, including other nulls (SQL semantics).
func (v Value) Equal(o Value) bool {
	if !v.valid || !o.valid {
		return false
	}
	if v.kind != o.kind {
		// Numeric cross-kind comparison.
		if (v.kind == Int || v.kind == Float) && (o.kind == Int || o.kind == Float) {
			return v.Float() == o.Float()
		}
		return false
	}
	switch v.kind {
	case String:
		return v.s == o.s
	case Float:
		return v.f() == o.f()
	case Int, Date, Bool:
		return v.n == o.n
	}
	return false
}

// String implements fmt.Stringer; null renders as "NULL".
func (v Value) String() string {
	if !v.valid {
		return "NULL"
	}
	return v.Str()
}

// dateFormats are the layouts accepted when parsing dates from text, in
// the order they are tried.
var dateFormats = []string{
	"2006-01-02",
	"1/2/06",
	"01/02/2006",
	"1/2/2006",
	"2006-01-02 15:04:05",
	"2006/01/02",
}

// ParseDate parses s using the accepted date layouts.
func ParseDate(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	for _, layout := range dateFormats {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("table: cannot parse %q as date", s)
}

// Parse converts raw text into a Value of kind k. Empty or whitespace-only
// text (and common NA markers) becomes null.
func Parse(s string, k Kind) (Value, error) {
	trimmed := strings.TrimSpace(s)
	if isNA(trimmed) {
		return Null(k), nil
	}
	switch k {
	case String:
		return S(s), nil
	case Int:
		i, err := strconv.ParseInt(trimmed, 10, 64)
		if err != nil {
			return Null(k), fmt.Errorf("table: cannot parse %q as int: %w", s, err)
		}
		return I(i), nil
	case Float:
		f, err := strconv.ParseFloat(trimmed, 64)
		if err != nil {
			return Null(k), fmt.Errorf("table: cannot parse %q as float: %w", s, err)
		}
		return F(f), nil
	case Date:
		t, err := ParseDate(trimmed)
		if err != nil {
			return Null(k), err
		}
		return D(t), nil
	case Bool:
		b, err := strconv.ParseBool(strings.ToLower(trimmed))
		if err != nil {
			return Null(k), fmt.Errorf("table: cannot parse %q as bool: %w", s, err)
		}
		return B(b), nil
	}
	return Value{}, fmt.Errorf("table: unknown kind %v", k)
}

// isNA reports whether raw text denotes a missing value. Every marker
// is at most four bytes, and nothing longer lowercases to one, so a
// longer cell is not copied to lower case just to be told so.
func isNA(s string) bool {
	if len(s) > len("null") {
		return false
	}
	switch strings.ToLower(s) {
	case "", "na", "n/a", "nan", "null", "none", "-":
		return true
	}
	return false
}
