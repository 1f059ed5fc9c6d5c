package table

import (
	"fmt"
	"sort"
	"strings"
)

// Row is one record: a slice of values aligned with the table schema.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is an in-memory relation: a schema plus rows. Tables are mutable
// through the methods below; the relational operators (Project, Select,
// Join, ...) return new tables and leave the receiver untouched.
type Table struct {
	name   string
	schema *Schema
	rows   []Row
}

// New creates an empty table with the given name and schema. A schema
// never changes once built, so tables share it.
func New(name string, schema *Schema) *Table {
	return &Table{name: name, schema: schema}
}

// FromRows creates a table holding rows under schema. The table keeps
// the slice, not a copy; every row must have one value per column.
func FromRows(name string, schema *Schema, rows []Row) (*Table, error) {
	t := &Table{name: name, schema: schema, rows: rows[:len(rows):len(rows)]}
	for _, r := range rows {
		if err := t.check(r); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// SetName renames the table.
func (t *Table) SetName(name string) { t.name = name }

// Schema returns the table schema. Callers must not mutate it.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns the i-th row. Callers must not mutate it.
func (t *Table) Row(i int) Row { return t.rows[i] }

// Append adds a row. The row length must match the schema.
func (t *Table) Append(r Row) error {
	if err := t.check(r); err != nil {
		return err
	}
	t.rows = append(t.rows, r)
	return nil
}

// check reports a row whose length is not the schema's.
func (t *Table) check(r Row) error {
	if len(r) != t.schema.Len() {
		return fmt.Errorf("table %s: row has %d values, schema has %d columns",
			t.name, len(r), t.schema.Len())
	}
	return nil
}

// MustAppend is Append but panics on error; for construction code where a
// mismatch is a programming bug.
func (t *Table) MustAppend(r Row) {
	if err := t.Append(r); err != nil {
		panic(err)
	}
}

// Value returns the cell at row i, named column. It returns an error for
// an unknown column.
func (t *Table) Value(i int, col string) (Value, error) {
	j, ok := t.schema.Lookup(col)
	if !ok {
		return Value{}, fmt.Errorf("table %s: unknown column %q", t.name, col)
	}
	return t.rows[i][j], nil
}

// Get is Value but panics on unknown columns; for hot paths over a schema
// that has already been validated.
func (t *Table) Get(i int, col string) Value {
	v, err := t.Value(i, col)
	if err != nil {
		panic(err)
	}
	return v
}

// Col returns the index of the named column, or an error.
func (t *Table) Col(name string) (int, error) {
	j, ok := t.schema.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("table %s: unknown column %q", t.name, name)
	}
	return j, nil
}

// Clone returns a deep copy of the table (rows are copied; values are
// immutable so they are shared).
func (t *Table) Clone() *Table {
	out := New(t.name, t.schema)
	out.rows = make([]Row, len(t.rows))
	for i, r := range t.rows {
		out.rows[i] = r.Clone()
	}
	return out
}

// Project returns a new table with only the named columns, in the given
// order.
func (t *Table) Project(name string, cols ...string) (*Table, error) {
	idx := make([]int, len(cols))
	fields := make([]Field, len(cols))
	for i, c := range cols {
		j, ok := t.schema.Lookup(c)
		if !ok {
			return nil, fmt.Errorf("table %s: project: unknown column %q", t.name, c)
		}
		idx[i] = j
		fields[i] = t.schema.Field(j)
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	out := New(name, schema)
	out.rows = make([]Row, len(t.rows))
	for i, r := range t.rows {
		nr := make(Row, len(idx))
		for k, j := range idx {
			nr[k] = r[j]
		}
		out.rows[i] = nr
	}
	return out, nil
}

// Rename returns a new table with columns renamed according to mapping
// (old name → new name). Columns not in the mapping keep their names.
func (t *Table) Rename(mapping map[string]string) (*Table, error) {
	fields := t.schema.Fields()
	for i := range fields {
		if nn, ok := mapping[fields[i].Name]; ok {
			fields[i].Name = nn
		}
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("table %s: rename: %w", t.name, err)
	}
	out := New(t.name, schema)
	out.rows = make([]Row, len(t.rows))
	for i, r := range t.rows {
		out.rows[i] = r.Clone()
	}
	return out, nil
}

// Select returns a new table containing the rows for which keep returns
// true.
func (t *Table) Select(name string, keep func(Row) bool) *Table {
	out := New(name, t.schema)
	for _, r := range t.rows {
		if keep(r) {
			out.rows = append(out.rows, r.Clone())
		}
	}
	return out
}

// AddColumn returns a new table with an extra column computed per row.
func (t *Table) AddColumn(field Field, compute func(Row) Value) (*Table, error) {
	fields := append(t.schema.Fields(), field)
	schema, err := NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("table %s: add column: %w", t.name, err)
	}
	out := New(t.name, schema)
	out.rows = make([]Row, len(t.rows))
	for i, r := range t.rows {
		nr := make(Row, len(r)+1)
		copy(nr, r)
		nr[len(r)] = compute(r)
		out.rows[i] = nr
	}
	return out, nil
}

// DropColumn returns a new table without the named column.
func (t *Table) DropColumn(col string) (*Table, error) {
	if !t.schema.Has(col) {
		return nil, fmt.Errorf("table %s: drop: unknown column %q", t.name, col)
	}
	keep := make([]string, 0, t.schema.Len()-1)
	for _, f := range t.schema.Fields() {
		if f.Name != col {
			keep = append(keep, f.Name)
		}
	}
	return t.Project(t.name, keep...)
}

// Union returns a new table with the rows of t followed by the rows of o.
// The schemas must be equal.
func (t *Table) Union(name string, o *Table) (*Table, error) {
	if !t.schema.Equal(o.schema) {
		return nil, fmt.Errorf("table: union: schema mismatch between %s and %s", t.name, o.name)
	}
	out := New(name, t.schema)
	out.rows = make([]Row, 0, len(t.rows)+len(o.rows))
	for _, r := range t.rows {
		out.rows = append(out.rows, r.Clone())
	}
	for _, r := range o.rows {
		out.rows = append(out.rows, r.Clone())
	}
	return out, nil
}

// rowKey renders a row's values in the given columns as a composite hash
// key. Null participates as a distinguishable token.
func (t *Table) rowKey(r Row, idx []int) string {
	var b strings.Builder
	for k, j := range idx {
		if k > 0 {
			b.WriteByte('\x1f')
		}
		v := r[j]
		if v.IsNull() {
			b.WriteString("\x00NULL")
		} else {
			b.WriteString(v.Str())
		}
	}
	return b.String()
}

// colIdx resolves column names to indices.
func (t *Table) colIdx(cols []string) ([]int, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, ok := t.schema.Lookup(c)
		if !ok {
			return nil, fmt.Errorf("table %s: unknown column %q", t.name, c)
		}
		idx[i] = j
	}
	return idx, nil
}

// IsKey reports whether the named columns form a key: no nulls and no
// duplicate combination of values.
func (t *Table) IsKey(cols ...string) (bool, error) {
	idx, err := t.colIdx(cols)
	if err != nil {
		return false, err
	}
	seen := make(map[string]struct{}, len(t.rows))
	for _, r := range t.rows {
		for _, j := range idx {
			if r[j].IsNull() {
				return false, nil
			}
		}
		k := t.rowKey(r, idx)
		if _, dup := seen[k]; dup {
			return false, nil
		}
		seen[k] = struct{}{}
	}
	return true, nil
}

// ForeignKeyViolations returns the number of non-null values in t's column
// col that do not appear in refCol of ref. It is the key/FK validation used
// in Section 6 step 2 of the case study.
func (t *Table) ForeignKeyViolations(col string, ref *Table, refCol string) (int, error) {
	j, err := t.Col(col)
	if err != nil {
		return 0, err
	}
	rj, err := ref.Col(refCol)
	if err != nil {
		return 0, err
	}
	valid := make(map[string]struct{}, ref.Len())
	for _, r := range ref.rows {
		if !r[rj].IsNull() {
			valid[r[rj].Str()] = struct{}{}
		}
	}
	violations := 0
	for _, r := range t.rows {
		if r[j].IsNull() {
			continue
		}
		if _, ok := valid[r[j].Str()]; !ok {
			violations++
		}
	}
	return violations, nil
}

// JoinKind selects the join flavour.
type JoinKind int

const (
	// InnerJoin keeps only matching row pairs.
	InnerJoin JoinKind = iota
	// LeftJoin keeps every left row, null-padding right columns when there
	// is no match.
	LeftJoin
)

// Join equi-joins t (left) with o (right) on leftCol = rightCol. Right
// columns are prefixed with o's name + "." when they would collide with a
// left column name.
func (t *Table) Join(name string, o *Table, leftCol, rightCol string, kind JoinKind) (*Table, error) {
	lj, err := t.Col(leftCol)
	if err != nil {
		return nil, err
	}
	rj, err := o.Col(rightCol)
	if err != nil {
		return nil, err
	}

	fields := t.schema.Fields()
	rightFields := o.schema.Fields()
	taken := make(map[string]struct{}, len(fields))
	for _, f := range fields {
		taken[f.Name] = struct{}{}
	}
	for i := range rightFields {
		if _, clash := taken[rightFields[i].Name]; clash {
			rightFields[i].Name = o.name + "." + rightFields[i].Name
		}
		taken[rightFields[i].Name] = struct{}{}
		fields = append(fields, rightFields[i])
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("table: join: %w", err)
	}

	// Hash the right side.
	index := make(map[string][]int)
	for i, r := range o.rows {
		if r[rj].IsNull() {
			continue
		}
		k := r[rj].Str()
		index[k] = append(index[k], i)
	}

	out := New(name, schema)
	nullsRight := make(Row, o.schema.Len())
	for i := range nullsRight {
		nullsRight[i] = Null(o.schema.Field(i).Kind)
	}
	for _, lr := range t.rows {
		var matches []int
		if !lr[lj].IsNull() {
			matches = index[lr[lj].Str()]
		}
		if len(matches) == 0 {
			if kind == LeftJoin {
				nr := make(Row, 0, schema.Len())
				nr = append(nr, lr...)
				nr = append(nr, nullsRight...)
				out.rows = append(out.rows, nr)
			}
			continue
		}
		for _, ri := range matches {
			nr := make(Row, 0, schema.Len())
			nr = append(nr, lr...)
			nr = append(nr, o.rows[ri]...)
			out.rows = append(out.rows, nr)
		}
	}
	return out, nil
}

// GroupConcat groups rows by keyCol and concatenates the non-null values of
// valCol (in first-seen group order) with sep, deduplicating exact repeats.
// It returns a two-column table (keyCol, valCol). This implements the
// employee-name aggregation of Section 6 step 4.b.
func (t *Table) GroupConcat(name, keyCol, valCol, sep string) (*Table, error) {
	kj, err := t.Col(keyCol)
	if err != nil {
		return nil, err
	}
	vj, err := t.Col(valCol)
	if err != nil {
		return nil, err
	}
	order := make([]string, 0)
	parts := make(map[string][]string)
	seen := make(map[string]map[string]struct{})
	for _, r := range t.rows {
		if r[kj].IsNull() {
			continue
		}
		k := r[kj].Str()
		if _, ok := parts[k]; !ok {
			order = append(order, k)
			parts[k] = nil
			seen[k] = make(map[string]struct{})
		}
		if r[vj].IsNull() {
			continue
		}
		v := r[vj].Str()
		if _, dup := seen[k][v]; dup {
			continue
		}
		seen[k][v] = struct{}{}
		parts[k] = append(parts[k], v)
	}
	schema := MustSchema(
		Field{Name: keyCol, Kind: t.schema.Field(kj).Kind},
		Field{Name: valCol, Kind: String},
	)
	out := New(name, schema)
	for _, k := range order {
		var v Value
		if len(parts[k]) == 0 {
			v = Null(String)
		} else {
			v = S(strings.Join(parts[k], sep))
		}
		out.MustAppend(Row{S(k), v})
	}
	return out, nil
}

// Distinct returns a new table with duplicate rows (over the named columns,
// or all columns when none are given) removed, keeping first occurrences.
func (t *Table) Distinct(name string, cols ...string) (*Table, error) {
	if len(cols) == 0 {
		cols = t.schema.Names()
	}
	idx, err := t.colIdx(cols)
	if err != nil {
		return nil, err
	}
	out := New(name, t.schema)
	seen := make(map[string]struct{}, len(t.rows))
	for _, r := range t.rows {
		k := t.rowKey(r, idx)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.rows = append(out.rows, r.Clone())
	}
	return out, nil
}

// SortBy returns a new table sorted ascending by the named column (string
// comparison for strings/dates rendered canonically, numeric for numbers).
// Nulls sort first. The sort is stable.
func (t *Table) SortBy(col string) (*Table, error) {
	j, err := t.Col(col)
	if err != nil {
		return nil, err
	}
	out := t.Clone()
	kind := t.schema.Field(j).Kind
	sort.SliceStable(out.rows, func(a, b int) bool {
		va, vb := out.rows[a][j], out.rows[b][j]
		if va.IsNull() != vb.IsNull() {
			return va.IsNull()
		}
		if va.IsNull() {
			return false
		}
		switch kind {
		case Int, Float:
			return va.Float() < vb.Float()
		case Date:
			return va.Date().Before(vb.Date())
		default:
			return va.Str() < vb.Str()
		}
	})
	return out, nil
}

// Head returns the first n rows as a new table (fewer if the table is
// shorter).
func (t *Table) Head(n int) *Table {
	if n > len(t.rows) {
		n = len(t.rows)
	}
	out := New(t.name, t.schema)
	out.rows = make([]Row, n)
	for i := 0; i < n; i++ {
		out.rows[i] = t.rows[i].Clone()
	}
	return out
}

// String renders a small preview of the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%d rows x %d cols]\n", t.name, t.Len(), t.schema.Len())
	b.WriteString(strings.Join(t.schema.Names(), " | "))
	b.WriteByte('\n')
	n := t.Len()
	if n > 5 {
		n = 5
	}
	for i := 0; i < n; i++ {
		cells := make([]string, t.schema.Len())
		for j := range cells {
			cells[j] = t.rows[i][j].String()
		}
		b.WriteString(strings.Join(cells, " | "))
		b.WriteByte('\n')
	}
	if t.Len() > n {
		fmt.Fprintf(&b, "... (%d more rows)\n", t.Len()-n)
	}
	return b.String()
}
