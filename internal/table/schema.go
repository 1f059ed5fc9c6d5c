package table

import (
	"fmt"
	"strings"
)

// Field describes one column: its name and logical kind.
type Field struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of fields with unique names. It never
// changes once NewSchema has built it.
type Schema struct {
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema from fields. It returns an error when a field
// name is empty or duplicated.
func NewSchema(fields ...Field) (*Schema, error) {
	s := &Schema{
		fields: make([]Field, 0, len(fields)),
		index:  make(map[string]int, len(fields)),
	}
	for _, f := range fields {
		if err := s.add(f); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustSchema is NewSchema but panics on error; for static schema literals.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Schema) add(f Field) error {
	if f.Name == "" {
		return fmt.Errorf("table: empty field name")
	}
	if _, dup := s.index[f.Name]; dup {
		return fmt.Errorf("table: duplicate field %q", f.Name)
	}
	s.index[f.Name] = len(s.fields)
	s.fields = append(s.fields, f)
	return nil
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// Names returns the ordered column names.
func (s *Schema) Names() []string {
	out := make([]string, len(s.fields))
	for i, f := range s.fields {
		out[i] = f.Name
	}
	return out
}

// Lookup returns the index of the named column and whether it exists.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Has reports whether the named column exists.
func (s *Schema) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Equal reports whether two schemas have identical field lists.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.fields {
		if s.fields[i] != o.fields[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "Name(kind), ...".
func (s *Schema) String() string {
	parts := make([]string, len(s.fields))
	for i, f := range s.fields {
		parts[i] = fmt.Sprintf("%s(%s)", f.Name, f.Kind)
	}
	return strings.Join(parts, ", ")
}
