package table

import (
	"strings"
	"testing"
)

// personTable builds the Figure 1 style table for tests.
func personTable(t *testing.T, name string, rows [][]string) *Table {
	t.Helper()
	schema := MustSchema(
		Field{Name: "Name", Kind: String},
		Field{Name: "City", Kind: String},
		Field{Name: "State", Kind: String},
	)
	tab := New(name, schema)
	for _, r := range rows {
		tab.MustAppend(Row{S(r[0]), S(r[1]), S(r[2])})
	}
	return tab
}

func TestAppendAndAccess(t *testing.T) {
	a := personTable(t, "A", [][]string{
		{"Dave Smith", "Madison", "WI"},
		{"Joe Wilson", "San Jose", "CA"},
	})
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
	v, err := a.Value(0, "City")
	if err != nil || v.Str() != "Madison" {
		t.Fatalf("Value(0,City) = %v, %v", v, err)
	}
	if _, err := a.Value(0, "Nope"); err == nil {
		t.Fatal("unknown column should error")
	}
	if err := a.Append(Row{S("x")}); err == nil {
		t.Fatal("short row should error")
	}
}

func TestProject(t *testing.T) {
	a := personTable(t, "A", [][]string{{"Dave", "Madison", "WI"}})
	p, err := a.Project("P", "State", "Name")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(p.Schema().Names(), ","); got != "State,Name" {
		t.Fatalf("projected schema = %s", got)
	}
	if p.Get(0, "State").Str() != "WI" || p.Get(0, "Name").Str() != "Dave" {
		t.Fatal("projected values wrong")
	}
	if _, err := a.Project("P", "Missing"); err == nil {
		t.Fatal("projecting unknown column should error")
	}
	// Source unchanged.
	if a.Schema().Len() != 3 {
		t.Fatal("project mutated source")
	}
}

func TestRename(t *testing.T) {
	a := personTable(t, "A", [][]string{{"Dave", "Madison", "WI"}})
	r, err := a.Rename(map[string]string{"Name": "FullName"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Schema().Has("FullName") || r.Schema().Has("Name") {
		t.Fatal("rename did not apply")
	}
	if r.Get(0, "FullName").Str() != "Dave" {
		t.Fatal("rename lost data")
	}
	// Renaming onto an existing name must fail.
	if _, err := a.Rename(map[string]string{"Name": "City"}); err == nil {
		t.Fatal("rename collision should error")
	}
}

func TestSelect(t *testing.T) {
	a := personTable(t, "A", [][]string{
		{"Dave", "Madison", "WI"},
		{"Joe", "San Jose", "CA"},
		{"Dan", "Middleton", "WI"},
	})
	j, _ := a.Col("State")
	wi := a.Select("WI", func(r Row) bool { return r[j].Str() == "WI" })
	if wi.Len() != 2 {
		t.Fatalf("selected %d rows", wi.Len())
	}
}

func TestAddDropColumn(t *testing.T) {
	a := personTable(t, "A", [][]string{{"Dave Smith", "Madison", "WI"}})
	b, err := a.AddColumn(Field{Name: "Initial", Kind: String}, func(r Row) Value {
		return S(r[0].Str()[:1])
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Get(0, "Initial").Str() != "D" {
		t.Fatal("AddColumn compute wrong")
	}
	if _, err := b.AddColumn(Field{Name: "Initial", Kind: String}, nil); err == nil {
		t.Fatal("duplicate AddColumn should error")
	}
	c, err := b.DropColumn("Initial")
	if err != nil {
		t.Fatal(err)
	}
	if c.Schema().Has("Initial") {
		t.Fatal("DropColumn did not drop")
	}
	if _, err := c.DropColumn("Initial"); err == nil {
		t.Fatal("dropping missing column should error")
	}
}

func TestUnion(t *testing.T) {
	a := personTable(t, "A", [][]string{{"Dave", "Madison", "WI"}})
	b := personTable(t, "B", [][]string{{"Joe", "San Jose", "CA"}})
	u, err := a.Union("U", b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 2 {
		t.Fatalf("union len = %d", u.Len())
	}
	other := New("O", MustSchema(Field{Name: "X", Kind: Int}))
	if _, err := a.Union("U", other); err == nil {
		t.Fatal("union with mismatched schema should error")
	}
}

func TestIsKey(t *testing.T) {
	a := personTable(t, "A", [][]string{
		{"Dave", "Madison", "WI"},
		{"Joe", "San Jose", "CA"},
	})
	ok, err := a.IsKey("Name")
	if err != nil || !ok {
		t.Fatalf("Name should be a key: %v %v", ok, err)
	}
	ok, _ = a.IsKey("State")
	if !ok {
		t.Fatal("State unique here, should be key")
	}
	a.MustAppend(Row{S("Dan"), S("Middleton"), S("WI")})
	ok, _ = a.IsKey("State")
	if ok {
		t.Fatal("duplicate State should not be key")
	}
	// Composite key.
	ok, _ = a.IsKey("City", "State")
	if !ok {
		t.Fatal("City+State should be composite key")
	}
	// Null breaks keys.
	a.MustAppend(Row{Null(String), S("x"), S("y")})
	ok, _ = a.IsKey("Name")
	if ok {
		t.Fatal("null in key column should fail IsKey")
	}
	if _, err := a.IsKey("Zip"); err == nil {
		t.Fatal("unknown key column should error")
	}
}

func TestForeignKeyViolations(t *testing.T) {
	awards := New("awards", MustSchema(Field{Name: "ID", Kind: String}))
	awards.MustAppend(Row{S("A1")})
	awards.MustAppend(Row{S("A2")})
	emp := New("emp", MustSchema(Field{Name: "AwardID", Kind: String}))
	emp.MustAppend(Row{S("A1")})
	emp.MustAppend(Row{S("A3")}) // violation
	emp.MustAppend(Row{Null(String)})
	n, err := emp.ForeignKeyViolations("AwardID", awards, "ID")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("violations = %d want 1", n)
	}
}

func TestJoinInner(t *testing.T) {
	l := New("L", MustSchema(Field{Name: "K", Kind: String}, Field{Name: "A", Kind: String}))
	l.MustAppend(Row{S("k1"), S("a1")})
	l.MustAppend(Row{S("k2"), S("a2")})
	l.MustAppend(Row{Null(String), S("a3")})
	r := New("R", MustSchema(Field{Name: "K", Kind: String}, Field{Name: "B", Kind: String}))
	r.MustAppend(Row{S("k1"), S("b1")})
	r.MustAppend(Row{S("k1"), S("b2")})

	j, err := l.Join("J", r, "K", "K", InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("inner join len = %d want 2", j.Len())
	}
	// Right K collided, so it is prefixed.
	if !j.Schema().Has("R.K") {
		t.Fatalf("expected prefixed right column, schema: %s", j.Schema())
	}
}

func TestJoinLeft(t *testing.T) {
	l := New("L", MustSchema(Field{Name: "K", Kind: String}))
	l.MustAppend(Row{S("k1")})
	l.MustAppend(Row{S("k9")})
	r := New("R", MustSchema(Field{Name: "RK", Kind: String}, Field{Name: "B", Kind: String}))
	r.MustAppend(Row{S("k1"), S("b1")})
	j, err := l.Join("J", r, "K", "RK", LeftJoin)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("left join len = %d want 2", j.Len())
	}
	if !j.Get(1, "B").IsNull() {
		t.Fatal("unmatched left row should null-pad right columns")
	}
}

func TestGroupConcat(t *testing.T) {
	e := New("E", MustSchema(Field{Name: "Award", Kind: String}, Field{Name: "Emp", Kind: String}))
	e.MustAppend(Row{S("A1"), S("Kermicle, J.L")})
	e.MustAppend(Row{S("A1"), S("Hammer, R")})
	e.MustAppend(Row{S("A1"), S("Kermicle, J.L")}) // dedup
	e.MustAppend(Row{S("A2"), Null(String)})
	g, err := e.GroupConcat("G", "Award", "Emp", "|")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("groups = %d", g.Len())
	}
	if got := g.Get(0, "Emp").Str(); got != "Kermicle, J.L|Hammer, R" {
		t.Fatalf("concat = %q", got)
	}
	if !g.Get(1, "Emp").IsNull() {
		t.Fatal("group of only nulls should concat to null")
	}
}

// TestGroupConcatKeepsKeyKind: each group's key is its first row's
// value, so an Int key column reads back as ints under its int schema.
// Repeats are dropped within a group only, and an empty value is a value.
func TestGroupConcatKeepsKeyKind(t *testing.T) {
	e := New("E", MustSchema(Field{Name: "K", Kind: Int}, Field{Name: "V", Kind: String}))
	for _, r := range []Row{
		{I(7), S("a")}, {I(3), S("a")}, {I(7), S("c")}, {I(7), S("a")},
		{Null(Int), S("z")}, {I(3), S("")}, {I(3), Null(String)},
	} {
		e.MustAppend(r)
	}
	for _, c := range []struct {
		sep    string
		v7, v3 string
	}{{"|", "a|c", "a|"}, {"", "ac", "a"}} {
		g, err := e.GroupConcat("G", "K", "V", c.sep)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != 2 || g.Schema().Field(0).Kind != Int {
			t.Fatalf("sep %q: %d groups, key kind %v", c.sep, g.Len(), g.Schema().Field(0).Kind)
		}
		for i, want := range []struct {
			k int64
			v string
		}{{7, c.v7}, {3, c.v3}} {
			if k := g.Row(i)[0]; k.Kind() != Int || k.Int() != want.k {
				t.Errorf("sep %q: group %d key = %v (kind %v), want int %d", c.sep, i, k, k.Kind(), want.k)
			}
			if v := g.Row(i)[1]; v.IsNull() || v.Str() != want.v {
				t.Errorf("sep %q: group %d = %q (null %v), want %q", c.sep, i, v.Str(), v.IsNull(), want.v)
			}
		}
	}
}

// TestOperatorOutputsDoNotAlias: an operator carves its output rows from
// one slab, and Rename shares the receiver's rows. Appending to an output
// row, or to the output table, must change neither a neighbouring row nor
// the receiver; appending to the receiver must not change the output.
// This is TestCloneIndependence's property for Clone.
func TestOperatorOutputsDoNotAlias(t *testing.T) {
	zips := New("Z", MustSchema(Field{Name: "City", Kind: String}, Field{Name: "Zip", Kind: String}))
	zips.MustAppend(Row{S("Madison"), S("53706")})
	zips.MustAppend(Row{S("Madison"), S("53703")})
	for name, op := range map[string]func(a *Table) (*Table, error){
		"Project": func(a *Table) (*Table, error) { return a.Project("P", "City", "Name") },
		"AddColumn": func(a *Table) (*Table, error) {
			return a.AddColumn(Field{Name: "N", Kind: Int}, func(Row) Value { return I(1) })
		},
		"Join":        func(a *Table) (*Table, error) { return a.Join("J", zips, "City", "City", LeftJoin) },
		"GroupConcat": func(a *Table) (*Table, error) { return a.GroupConcat("G", "State", "Name", "|") },
		"Rename":      func(a *Table) (*Table, error) { return a.Rename(map[string]string{"Name": "Who"}) },
	} {
		a := personTable(t, "A", [][]string{
			{"Dave", "Madison", "WI"}, {"Joe", "Verona", "WI"}, {"Ann", "Madison", "IL"},
		})
		out, err := op(a)
		if err != nil {
			t.Fatal(err)
		}
		receiver, output := a.Fingerprint(), out.Fingerprint()
		for i := 0; i < out.Len(); i++ {
			_ = append(out.Row(i), S("spill"))
		}
		if out.Fingerprint() != output || a.Fingerprint() != receiver {
			t.Errorf("%s: appending to an output row changed another row or the receiver", name)
		}
		out.MustAppend(append(Row(nil), out.Row(0)...))
		if a.Fingerprint() != receiver {
			t.Errorf("%s: appending to the output changed the receiver", name)
		}
		output = out.Fingerprint()
		a.MustAppend(Row{S("Eve"), S("Madison"), S("WI")})
		if out.Fingerprint() != output {
			t.Errorf("%s: appending to the receiver changed the output", name)
		}
	}
}

func TestDistinct(t *testing.T) {
	a := personTable(t, "A", [][]string{
		{"Dave", "Madison", "WI"},
		{"Dave", "Madison", "WI"},
		{"Dave", "Verona", "WI"},
	})
	d, err := a.Distinct("D")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("distinct all-cols len = %d", d.Len())
	}
	d2, err := a.Distinct("D2", "Name")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 {
		t.Fatalf("distinct Name len = %d", d2.Len())
	}
}

func TestSortByAndHead(t *testing.T) {
	a := New("A", MustSchema(Field{Name: "N", Kind: Int}))
	for _, n := range []int64{3, 1, 2} {
		a.MustAppend(Row{I(n)})
	}
	a.MustAppend(Row{Null(Int)})
	s, err := a.SortBy("N")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Get(0, "N").IsNull() {
		t.Fatal("nulls should sort first")
	}
	if s.Get(1, "N").Int() != 1 || s.Get(3, "N").Int() != 3 {
		t.Fatal("numeric sort wrong")
	}
	h := s.Head(2)
	if h.Len() != 2 {
		t.Fatal("head wrong")
	}
	if s.Head(100).Len() != 4 {
		t.Fatal("head beyond len should clamp")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := personTable(t, "A", [][]string{{"Dave", "Madison", "WI"}})
	b := a.Clone()
	b.MustAppend(Row{S("Joe"), S("x"), S("y")})
	if a.Len() != 1 {
		t.Fatal("clone shares row storage")
	}
}

func TestStringPreview(t *testing.T) {
	a := personTable(t, "A", [][]string{
		{"a", "b", "c"}, {"d", "e", "f"}, {"g", "h", "i"},
		{"j", "k", "l"}, {"m", "n", "o"}, {"p", "q", "r"},
	})
	s := a.String()
	if !strings.Contains(s, "6 rows") || !strings.Contains(s, "more rows") {
		t.Fatalf("preview = %s", s)
	}
}

func TestTablesShareTheirSchema(t *testing.T) {
	s := MustSchema(Field{Name: "ID", Kind: String}, Field{Name: "N", Kind: Int})
	if New("a", s).Schema() != s {
		t.Fatal("New copied the schema")
	}
	rows := []Row{{S("x"), I(1)}, {S("y"), I(2)}}
	tb, err := FromRows("b", s, rows)
	if err != nil || tb.Schema() != s || tb.Len() != 2 || tb.Row(1)[0].Str() != "y" {
		t.Fatalf("FromRows = %v, %v", tb, err)
	}
	// The table keeps the slice but never appends into its spare room.
	spare := append(make([]Row, 0, 4), rows...)
	tb, _ = FromRows("c", s, spare)
	tb.MustAppend(Row{S("z"), I(3)})
	if spare[:3][2] != nil {
		t.Fatal("Append wrote into the caller's slice")
	}
	if _, err := FromRows("d", s, []Row{{S("short")}}); err == nil {
		t.Fatal("FromRows took a row narrower than the schema")
	}
}
