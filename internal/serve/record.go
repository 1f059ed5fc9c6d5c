package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"emgo/internal/table"
)

// The record grammar. A request's envelope goes through encoding/json
// (unknown fields, case-folded keys, field types and trailing data are
// its rules), but a record object is only captured there, as text, and
// walked once by recordScan: straight into a row under the left schema
// (fillRow), or into the map form the exported decoders return
// (recordMap). A record a duplicate key wrote twice is walked part by
// part. Either way a value becomes a cell, and a cell becomes a
// table value the one way cell.value says.

// errNotObject is the envelope decoder's answer to a record that is
// neither an object nor null.
var errNotObject = errors.New("a record must be a JSON object")

// rawRecord is a "record" object as the envelope decoder met it: the
// text of the first object, then those a duplicate key merged into it,
// in order. A map decode merges a duplicate into the map it already
// holds, so the walkers read the parts in turn and the last duplicate
// wins; keeping the parts apart, rather than splicing them into one
// text, keeps a body of many duplicates linear. null empties it.
type rawRecord struct {
	head string   // the first object's text; "" when there is none
	tail []string // the objects later duplicates merged in
}

func (r *rawRecord) UnmarshalJSON(data []byte) error { return r.add(string(data)) }

// add is what the record becomes when the decoder meets value for it:
// value's pairs after its own, or none for null.
func (r *rawRecord) add(value string) error {
	switch {
	case value == "null":
		*r = rawRecord{}
	case value[0] != '{':
		return errNotObject
	case r.head == "":
		r.head = value
	default:
		r.tail = append(r.tail, value)
	}
	return nil
}

// parts is how many object texts the record holds; part(k) is the k-th.
func (r *rawRecord) parts() int {
	if r.head == "" {
		return 0
	}
	return 1 + len(r.tail)
}

func (r *rawRecord) part(k int) string {
	if k == 0 {
		return r.head
	}
	return r.tail[k-1]
}

// empty reports whether no part of the record holds a pair; a record
// with none is as empty as no record at all.
func (r *rawRecord) empty() bool {
	for k := 0; k < r.parts(); k++ {
		if !emptyObject(r.part(k)) {
			return false
		}
	}
	return true
}

// rawRecords is a "records" array as the envelope decoder met it; its
// elements' texts are substrings of the array's text. A second "records"
// key merges element by element, as decoding into a []map does: element
// i merges into the i-th record any earlier array wrote, even one a
// shorter array has since cut off; null or an empty array forgets them.
type rawRecords struct {
	// all holds every record written since the last reset; the first n
	// are the request's.
	all []rawRecord
	n   int
}

// records returns the captured records.
func (r *rawRecords) records() []rawRecord { return r.all[:r.n] }

func (r *rawRecords) UnmarshalJSON(data []byte) error {
	if data[0] != '[' {
		r.all, r.n = nil, 0
		if string(data) == "null" {
			return nil
		}
		return errNotObject
	}
	text := string(data)
	sc := recordScan{s: text, i: 1}
	n, err := sc.count()
	if err != nil {
		return err
	}
	if n == 0 {
		r.all, r.n = nil, 0
		return nil
	}
	if r.all == nil {
		r.all = make([]rawRecord, 0, n)
	}
	for i := 0; i < n; i++ {
		sc.ws()
		start := sc.i
		if err := sc.skipValue(); err != nil {
			return err
		}
		if i == len(r.all) {
			r.all = append(r.all, rawRecord{})
		}
		if err := r.all[i].add(text[start:sc.i]); err != nil {
			return err
		}
		sc.ws()
		sc.i++ // the ',' or the closing ']'
	}
	r.n = n
	return nil
}

// emptyObject reports whether an object's text has no pairs.
func emptyObject(text string) bool {
	sc := recordScan{s: text, i: 1}
	sc.ws()
	return sc.i < len(text) && text[sc.i] == '}'
}

// recordScan reads JSON text the envelope decoder has already checked
// to be well formed; it still stops with an error, never a panic, on
// text that is not.
type recordScan struct {
	s string
	i int
}

var errRecordSyntax = errors.New("malformed record")

// ws skips white space.
func (sc *recordScan) ws() {
	for sc.i < len(sc.s) {
		switch sc.s[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// count returns how many values the array or object starting just
// before sc.i holds, leaving sc where it was.
func (sc *recordScan) count() (int, error) {
	probe := *sc
	n := 0
	for {
		probe.ws()
		if probe.i >= len(probe.s) {
			return 0, errRecordSyntax
		}
		if c := probe.s[probe.i]; c == ']' || c == '}' {
			return n, nil
		}
		if err := probe.skipValue(); err != nil {
			return 0, err
		}
		n++
		probe.ws()
		if probe.i < len(probe.s) && probe.s[probe.i] == ',' {
			probe.i++
		}
	}
}

// skipValue moves past one value of any type.
func (sc *recordScan) skipValue() error {
	if sc.i >= len(sc.s) {
		return errRecordSyntax
	}
	switch sc.s[sc.i] {
	case '"':
		_, err := sc.str()
		return err
	case '{', '[':
		depth := 0
		for sc.i < len(sc.s) {
			switch sc.s[sc.i] {
			case '"':
				if _, err := sc.str(); err != nil {
					return err
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					sc.i++
					return nil
				}
			}
			sc.i++
		}
		return errRecordSyntax
	}
	start := sc.i
	for sc.i < len(sc.s) && literalByte(sc.s[sc.i]) {
		sc.i++
	}
	if sc.i == start {
		return errRecordSyntax
	}
	return nil
}

// literalByte reports whether c can be part of a number, true, false or
// null.
func literalByte(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c == '-' || c == '+' || c == '.' || c == 'E'
}

// str reads the string starting at sc.i and returns its contents: a
// plain ASCII string is a substring of the text; one with an escape or
// a non-ASCII byte is decoded by encoding/json, invalid UTF-8 and all.
func (sc *recordScan) str() (string, error) {
	start, plain := sc.i, true
	for sc.i++; sc.i < len(sc.s); sc.i++ {
		switch c := sc.s[sc.i]; {
		case c == '"':
			sc.i++
			if plain {
				return sc.s[start+1 : sc.i-1], nil
			}
			var s string
			err := json.Unmarshal([]byte(sc.s[start:sc.i]), &s)
			return s, err
		case c == '\\':
			plain = false
			sc.i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return "", errRecordSyntax
}

// cell is one record value as the walker reads it.
type cell struct {
	kind cellKind
	// text is a string's contents, or a number's or boolean's literal.
	text string
}

type cellKind uint8

const (
	cellNull cellKind = iota
	cellString
	cellNumber
	cellBool
	// cellNested is an array or an object: it has no cell rendering.
	cellNested
)

// value parses the cell under a column kind. A null, a nested value and
// text the kind cannot parse are all nulls, the dirty-data posture
// ReadCSV takes.
func (c cell) value(kind table.Kind) table.Value {
	if c.kind == cellNull || c.kind == cellNested {
		return table.Null(kind)
	}
	v, err := table.Parse(c.text, kind)
	if err != nil {
		return table.Null(kind)
	}
	return v
}

// next reads the record's next pair; ok is false after the last. sc
// starts at the object's '{'.
func (sc *recordScan) next() (key string, c cell, ok bool, err error) {
	sc.ws()
	if sc.i >= len(sc.s) {
		return "", c, false, errRecordSyntax
	}
	switch sc.s[sc.i] {
	case '{', ',':
		sc.i++
		sc.ws()
	}
	if sc.i >= len(sc.s) {
		return "", c, false, errRecordSyntax
	}
	if sc.s[sc.i] == '}' {
		return "", c, false, nil
	}
	if sc.s[sc.i] != '"' {
		return "", c, false, errRecordSyntax
	}
	if key, err = sc.str(); err != nil {
		return "", c, false, err
	}
	sc.ws()
	if sc.i >= len(sc.s) || sc.s[sc.i] != ':' {
		return "", c, false, errRecordSyntax
	}
	sc.i++
	sc.ws()
	if sc.i >= len(sc.s) {
		return "", c, false, errRecordSyntax
	}
	start := sc.i
	switch b := sc.s[sc.i]; {
	case b == '"':
		c.kind = cellString
		c.text, err = sc.str()
	case b == '{' || b == '[':
		c.kind = cellNested
		err = sc.skipValue()
		c.text = sc.s[start:sc.i]
	default:
		err = sc.skipValue()
		switch c.text = sc.s[start:sc.i]; c.text {
		case "null":
			c.kind, c.text = cellNull, ""
		case "true", "false":
			c.kind = cellBool
		default:
			c.kind = cellNumber
		}
	}
	if err != nil {
		return "", c, false, err
	}
	return key, c, true, nil
}

// fillRow walks a record's parts into row under schema: each key names
// a column exactly, the last duplicate wins, and a missing column is a
// null. A key the schema lacks is a client error — a typoed column
// silently matching nothing is the worst failure mode.
func fillRow(schema *table.Schema, rec *rawRecord, row table.Row) error {
	for j := range row {
		row[j] = table.Null(schema.Field(j).Kind)
	}
	for k := 0; k < rec.parts(); k++ {
		sc := recordScan{s: rec.part(k)}
		for {
			key, c, ok, err := sc.next()
			if err != nil {
				return badRequest("record: %v", err)
			}
			if !ok {
				break
			}
			j, known := schema.Lookup(key)
			if !known {
				return badRequest("unknown column %q (left schema: %s)", key, schema)
			}
			row[j] = c.value(schema.Field(j).Kind)
		}
	}
	return nil
}

// recordMap walks a record's parts into the map form MatchRequest and
// BatchRequest carry: strings, json.Numbers, booleans, nils, and nested
// values as encoding/json decodes them (numbers as json.Number).
func recordMap(rec *rawRecord) (map[string]any, error) {
	m := map[string]any{}
	for k := 0; k < rec.parts(); k++ {
		sc := recordScan{s: rec.part(k)}
		for {
			key, c, ok, err := sc.next()
			if err != nil {
				return nil, badRequest("record: %v", err)
			}
			if !ok {
				break
			}
			switch c.kind {
			case cellNull:
				m[key] = nil
			case cellString:
				m[key] = c.text
			case cellNumber:
				m[key] = json.Number(c.text)
			case cellBool:
				m[key] = c.text == "true"
			case cellNested:
				var v any
				dec := json.NewDecoder(bytes.NewReader([]byte(c.text)))
				dec.UseNumber()
				if err := dec.Decode(&v); err != nil {
					return nil, badRequest("record: %v", err)
				}
				m[key] = v
			}
		}
	}
	return m, nil
}

// cellOf reads a map-form value as the walker would have read its JSON.
func cellOf(raw any) cell {
	switch v := raw.(type) {
	case nil:
		return cell{}
	case string:
		return cell{cellString, v}
	case json.Number:
		return cell{cellNumber, v.String()}
	case bool:
		return cell{cellBool, strconv.FormatBool(v)}
	}
	return cell{kind: cellNested}
}

// recordRows walks request records into rows under schema, all of them
// windows of one backing array; a bad record is reported with its index.
func recordRows(schema *table.Schema, recs []rawRecord) ([]table.Row, error) {
	width := schema.Len()
	cells := make([]table.Value, len(recs)*width)
	rows := make([]table.Row, len(recs))
	for i := range recs {
		rows[i] = cells[i*width : (i+1)*width : (i+1)*width]
		if err := fillRow(schema, &recs[i], rows[i]); err != nil {
			return nil, indexed(i, err)
		}
	}
	return rows, nil
}

// indexed names the record a request error is about.
func indexed(i int, err error) error {
	var re *RequestError
	if errors.As(err, &re) {
		return &RequestError{Status: re.Status, Msg: fmt.Sprintf("record %d: %s", i, re.Msg)}
	}
	return badRequest("record %d: %v", i, err)
}
