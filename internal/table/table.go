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

// slab returns n rows of width w carved from one backing array, so an
// operator's output costs two allocations, not one a row. Each row is
// capped at its width: an append to one copies it, not the next row.
func slab(n, w int) []Row {
	cells := make([]Value, n*w)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// copyRows deep-copies rows into one slab of width w.
func copyRows(rows []Row, w int) []Row {
	out := slab(len(rows), w)
	for i, r := range rows {
		copy(out[i], r)
	}
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
	out.rows = copyRows(t.rows, t.schema.Len())
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
	out.rows = slab(len(t.rows), len(idx))
	for i, r := range t.rows {
		for k, j := range idx {
			out.rows[i][k] = r[j]
		}
	}
	return out, nil
}

// Rename returns a new table with columns renamed according to mapping
// (old name → new name). Columns not in the mapping keep their names.
// Rows are immutable, so the new table shares t's.
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
	out.rows = t.rows[:len(t.rows):len(t.rows)]
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
	out.rows = copyRows(t.rows, schema.Len())
	for i, r := range t.rows {
		out.rows[i][len(r)] = compute(r)
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
	out.rows = copyRows(append(t.rows[:len(t.rows):len(t.rows)], o.rows...), t.schema.Len())
	return out, nil
}

// rowKey renders a row's values in the given columns as a composite hash
// key. Null participates as a distinguishable token.
func (t *Table) rowKey(r Row, idx []int) string {
	if len(idx) == 1 && !r[idx[0]].IsNull() {
		return r[idx[0]].Str()
	}
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

	// Hash the right side: index holds a key's first row and next each
	// row's successor under its key, both 1-based so 0 ends a chain.
	index := make(map[string]int, len(o.rows))
	next := make([]int, len(o.rows))
	for i := len(o.rows) - 1; i >= 0; i-- {
		if k := o.rows[i][rj]; !k.IsNull() {
			next[i], index[k.Str()] = index[k.Str()], i+1
		}
	}
	// Count the output rows first, so they are carved from one slab.
	heads := make([]int, len(t.rows))
	n := 0
	for i, lr := range t.rows {
		if !lr[lj].IsNull() {
			heads[i] = index[lr[lj].Str()]
		}
		for ri := heads[i]; ri > 0; ri = next[ri-1] {
			n++
		}
		if heads[i] == 0 && kind == LeftJoin {
			n++
		}
	}
	out := New(name, schema)
	out.rows = slab(n, schema.Len())
	n = 0
	for i, lr := range t.rows {
		if heads[i] == 0 && kind == LeftJoin {
			copy(out.rows[n], lr)
			for j := range o.schema.Len() {
				out.rows[n][len(lr)+j] = Null(o.schema.Field(j).Kind)
			}
			n++
		}
		for ri := heads[i]; ri > 0; ri = next[ri-1] {
			copy(out.rows[n], lr)
			copy(out.rows[n][len(lr):], o.rows[ri-1])
			n++
		}
	}
	return out, nil
}

// GroupConcat groups rows by keyCol and concatenates the non-null values of
// valCol (in first-seen group order) with sep, deduplicating exact repeats.
// It returns a two-column table (keyCol, valCol); each group's key is its
// first row's value. This implements the employee-name aggregation of
// Section 6 step 4.b.
func (t *Table) GroupConcat(name, keyCol, valCol, sep string) (*Table, error) {
	kj, err := t.Col(keyCol)
	if err != nil {
		return nil, err
	}
	vj, err := t.Col(valCol)
	if err != nil {
		return nil, err
	}
	// One index from key to group; one set of (group, value) pairs keeps
	// each group's values distinct.
	type group struct {
		key Value
		n   int
	}
	type part struct {
		g int
		v string
	}
	index := make(map[string]int)
	seen := make(map[part]struct{})
	var groups []group
	var parts []part
	for _, r := range t.rows {
		if r[kj].IsNull() {
			continue
		}
		k := r[kj].Str()
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, group{key: r[kj]})
		}
		p := part{g, r[vj].Str()}
		if _, dup := seen[p]; dup || r[vj].IsNull() {
			continue
		}
		seen[p] = struct{}{}
		parts = append(parts, p)
		groups[g].n++
	}
	// Each group's string is a window of one buffer that holds each of
	// its values behind a sep; the window skips the first sep.
	at := make([]int, len(groups)+1)
	for _, p := range parts {
		at[p.g+1] += len(sep) + len(p.v)
	}
	for g := range groups {
		at[g+1] += at[g]
	}
	buf, cur := make([]byte, at[len(groups)]), append([]int(nil), at...)
	for _, p := range parts {
		cur[p.g] += copy(buf[cur[p.g]:], sep)
		cur[p.g] += copy(buf[cur[p.g]:], p.v)
	}
	joined := string(buf)

	schema := MustSchema(
		Field{Name: keyCol, Kind: t.schema.Field(kj).Kind},
		Field{Name: valCol, Kind: String},
	)
	out := New(name, schema)
	out.rows = slab(len(groups), 2)
	for g, gr := range groups {
		out.rows[g][0], out.rows[g][1] = gr.key, Null(String)
		if gr.n > 0 {
			out.rows[g][1] = S(joined[at[g]+len(sep) : at[g+1]])
		}
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
	out.rows = copyRows(t.rows[:n], t.schema.Len())
	return out
}

// String renders a small preview of the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%d rows x %d cols]\n", t.name, t.Len(), t.schema.Len())
	b.WriteString(strings.Join(t.schema.Names(), " | "))
	b.WriteByte('\n')
	n := min(t.Len(), 5)
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
