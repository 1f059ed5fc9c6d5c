package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"emgo/internal/table"
)

// The reference decoders: the map-form decode the record walker
// replaced, kept whole — envelope, checks and cell parsing — so the
// fuzzers below can hold the walker to it byte for byte.

type refMatchRequest struct {
	Record    map[string]any `json:"record"`
	TimeoutMS int            `json:"timeout_ms,omitempty"`
	Trace     bool           `json:"trace,omitempty"`
}

type refBatchRequest struct {
	Records   []map[string]any `json:"records"`
	TimeoutMS int              `json:"timeout_ms,omitempty"`
	Trace     bool             `json:"trace,omitempty"`
}

func refDecodeMatch(data []byte, maxBytes int64) (*refMatchRequest, error) {
	var req refMatchRequest
	if err := new(bodyReader).decode(bytes.NewReader(data), maxBytes, "request", &req); err != nil {
		return nil, err
	}
	if len(req.Record) == 0 {
		return nil, badRequest(`request needs a non-empty "record" object`)
	}
	if req.TimeoutMS < 0 {
		return nil, badRequest("timeout_ms must be >= 0")
	}
	return &req, nil
}

func refDecodeBatch(data []byte, maxBytes int64, maxRecords int) (*refBatchRequest, error) {
	var req refBatchRequest
	if err := new(bodyReader).decode(bytes.NewReader(data), maxBytes, "batch request", &req); err != nil {
		return nil, err
	}
	if len(req.Records) == 0 {
		return nil, badRequest(`batch request needs a non-empty "records" array`)
	}
	if len(req.Records) > maxRecords {
		return nil, &RequestError{Status: http.StatusRequestEntityTooLarge, Msg: "too many records"}
	}
	for i, rec := range req.Records {
		if len(rec) == 0 {
			return nil, badRequest("batch record %d is empty", i)
		}
	}
	if req.TimeoutMS < 0 {
		return nil, badRequest("timeout_ms must be >= 0")
	}
	return &req, nil
}

func refRecordRow(schema *table.Schema, record map[string]any) (table.Row, error) {
	for name := range record {
		if !schema.Has(name) {
			return nil, badRequest("unknown column %q", name)
		}
	}
	row := make(table.Row, schema.Len())
	for i := range row {
		f := schema.Field(i)
		raw, present := record[f.Name]
		if !present || raw == nil {
			row[i] = table.Null(f.Kind)
			continue
		}
		row[i] = refParseCell(raw, f.Kind)
	}
	return row, nil
}

func refParseCell(raw any, kind table.Kind) table.Value {
	var text string
	switch v := raw.(type) {
	case string:
		text = v
	case json.Number:
		text = v.String()
	case bool:
		text = strconv.FormatBool(v)
	default:
		return table.Null(kind)
	}
	val, err := table.Parse(text, kind)
	if err != nil {
		return table.Null(kind)
	}
	return val
}

// outcome is what one decode path made of a body: rows and envelope
// fields, or the status it refused with.
type outcome struct {
	status    int
	rows      []table.Row
	timeoutMS int
	trace     bool
}

func (o outcome) String() string {
	if o.status != 0 {
		return fmt.Sprintf("refused %d", o.status)
	}
	return fmt.Sprintf("rows %v timeout %d trace %v", o.rows, o.timeoutMS, o.trace)
}

// refused checks err is a 4xx *RequestError and returns its outcome.
func refused(t *testing.T, side string, err error) outcome {
	t.Helper()
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("%s: rejection is not a *RequestError: %T %v", side, err, err)
	}
	if re.Status < 400 || re.Status > 499 {
		t.Fatalf("%s: rejection status %d is not 4xx (%s)", side, re.Status, re.Msg)
	}
	return outcome{status: re.Status}
}

// sameOutcome fails unless every side made the same of the body.
func sameOutcome(t *testing.T, data []byte, ref outcome, sides map[string]outcome) {
	t.Helper()
	for name, got := range sides {
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("body %q:\n  reference: %v\n  %s: %v", data, ref, name, got)
		}
	}
}

const (
	fuzzMaxBody    = 4096
	fuzzMaxRecords = 3
)

// checkMatchBody decodes one single-record body three ways — the
// reference, the handler's walk into a row, and the exported map form
// through RecordRow — and fails unless all three agree.
func checkMatchBody(t *testing.T, schema *table.Schema, data []byte) {
	t.Helper()
	var ref, walked, mapped outcome
	if req, err := refDecodeMatch(data, fuzzMaxBody); err != nil {
		ref = refused(t, "reference", err)
	} else if row, err := refRecordRow(schema, req.Record); err != nil {
		ref = refused(t, "reference", err)
	} else {
		ref = outcome{rows: []table.Row{row}, timeoutMS: req.TimeoutMS, trace: req.Trace}
	}
	row := make(table.Row, schema.Len())
	if env, err := decodeMatch(new(bodyReader), bytes.NewReader(data), fuzzMaxBody); err != nil {
		walked = refused(t, "walker", err)
	} else if err := fillRow(schema, &env.Record, row); err != nil {
		walked = refused(t, "walker", err)
	} else {
		walked = outcome{rows: []table.Row{row}, timeoutMS: env.TimeoutMS, trace: env.Trace}
	}
	if req, err := DecodeMatchRequest(bytes.NewReader(data), fuzzMaxBody); err != nil {
		mapped = refused(t, "map form", err)
	} else if row, err := RecordRow(schema, req.Record); err != nil {
		mapped = refused(t, "map form", err)
	} else {
		mapped = outcome{rows: []table.Row{row}, timeoutMS: req.TimeoutMS, trace: req.Trace}
	}
	if ref.status == 0 && int64(len(data)) > fuzzMaxBody {
		t.Fatalf("accepted %d-byte body over the %d-byte cap", len(data), fuzzMaxBody)
	}
	sameOutcome(t, data, ref, map[string]outcome{"walker": walked, "map form": mapped})
}

// checkBatchBody is checkMatchBody for the batch decoders.
func checkBatchBody(t *testing.T, schema *table.Schema, data []byte) {
	t.Helper()
	var ref, walked, mapped outcome
	if req, err := refDecodeBatch(data, fuzzMaxBody, fuzzMaxRecords); err != nil {
		ref = refused(t, "reference", err)
	} else {
		ref = outcome{timeoutMS: req.TimeoutMS, trace: req.Trace}
		for _, rec := range req.Records {
			row, err := refRecordRow(schema, rec)
			if err != nil {
				ref = refused(t, "reference", err)
				break
			}
			ref.rows = append(ref.rows, row)
		}
	}
	if env, err := decodeBatch(new(bodyReader), bytes.NewReader(data), fuzzMaxBody, fuzzMaxRecords); err != nil {
		walked = refused(t, "walker", err)
	} else if rows, err := recordRows(schema, env.Records.records()); err != nil {
		walked = refused(t, "walker", err)
	} else {
		walked = outcome{rows: rows, timeoutMS: env.TimeoutMS, trace: env.Trace}
	}
	if req, err := DecodeBatchRequest(bytes.NewReader(data), fuzzMaxBody, fuzzMaxRecords); err != nil {
		mapped = refused(t, "map form", err)
	} else if rows, err := mapRows(schema, req.Records); err != nil {
		mapped = refused(t, "map form", err)
	} else {
		mapped = outcome{rows: rows, timeoutMS: req.TimeoutMS, trace: req.Trace}
	}
	if ref.status == 0 && (int64(len(data)) > fuzzMaxBody || len(ref.rows) > fuzzMaxRecords) {
		t.Fatalf("accepted %d records in %d bytes past the caps", len(ref.rows), len(data))
	}
	sameOutcome(t, data, ref, map[string]outcome{"walker": walked, "map form": mapped})
}

// mapRows converts map-form records into rows under the left schema,
// naming a bad record by its index as recordRows does.
func mapRows(schema *table.Schema, records []map[string]any) ([]table.Row, error) {
	rows := make([]table.Row, len(records))
	for i, rec := range records {
		row, err := RecordRow(schema, rec)
		if err != nil {
			return nil, indexed(i, err)
		}
		rows[i] = row
	}
	return rows, nil
}

// recordSeeds are record objects the walker must read as encoding/json
// does: escapes, non-ASCII and invalid UTF-8, nesting, every JSON type,
// white space everywhere, duplicate and unknown keys.
var recordSeeds = []string{
	`{"ID":"l0","Num":"2008-1"}`,
	`{"Year":2008}`,
	`{"ID":null}`,
	`{"ID":["nested"]}`,
	`{}`,
	`{"ID":"a\"b\\c\/d\u00e9\n"}`,
	`{"I\u0044":"escaped key"}`,
	"{\"ID\":\"caf\u00e9 \xff\"}",
	`{"Year":"2008","Year":-1.5e3}`,
	`{"Year":true,"Num":false}`,
	` { "ID" : { "a" : [ 1 , "}" , {"b":"]"} ] } , "Num" : " x " } `,
	`{"Titel":"typo"}`,
	`{"ID":"x","Num":"NA","Year":"  2008 "}`,
	`{"Year":99999999999999999999}`,
}

// FuzzDecodeMatchRequest holds the single-record decoders to the map
// decode they replaced: on every body the handler's walk into a row, the
// exported map form through RecordRow and the reference give the same
// row and envelope, or all refuse with the same 4xx status — never a
// panic, never a 500, nothing past the byte cap.
func FuzzDecodeMatchRequest(f *testing.F) {
	for _, rec := range recordSeeds {
		f.Add([]byte(`{"record":` + rec + `}`))
	}
	f.Add([]byte(`{"record":{"Year":2008},"timeout_ms":100,"trace":true}`))
	f.Add([]byte(`{"RECORD":{"ID":"x"},"Trace":true}`))
	f.Add([]byte(`{"record":{"ID":"x"},"record":{"Num":"y"}}`))
	f.Add([]byte(`{"record":{"ID":"x"},"record":null}`))
	f.Add([]byte(`{"record":null,"record":{"ID":"x"}}`))
	f.Add([]byte(`{"record":{},"record":{"ID":"x","Num":"y"},"record":{},"record":{"ID":"z"}}`))
	f.Add([]byte(`{"record":{"ID":"x"},"record":{"ID":"y"},"record":null,"record":{"Num":"z"}}`))
	f.Add([]byte(`{"record":"x"}`))
	f.Add([]byte(`{"record":{"ID":"x"}}trailing`))
	f.Add([]byte(`{"record":{"ID":"x"}}]`))
	f.Add([]byte(`{"timeout_ms":-5,"record":{"ID":"x"}}`))
	f.Add([]byte(`{"record":{"ID":"x"},"bogus":1}`))
	f.Add([]byte(``))
	f.Add([]byte(`nonsense`))
	f.Add([]byte(`[{"record":{}}]`))
	f.Add([]byte(`{"record":{"ID":"` + strings.Repeat("a", 5000) + `"}}`))
	f.Add([]byte("{\"record\":{\"\x00\xff\":\"�\"}}"))

	schema := reqSchema()
	f.Fuzz(func(t *testing.T, data []byte) { checkMatchBody(t, schema, data) })
}

// FuzzDecodeBatchRequest holds the batch decoders to the same
// reference, whose caps matter more (one body carries many records):
// the same rows or the same 4xx status, nothing accepted past the byte
// or record caps.
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add([]byte(`{"records":[` + strings.Join(recordSeeds[:3], ",") + `]}`))
	f.Add([]byte(`{"records":[` + strings.Join(recordSeeds[5:8], ",") + `]}`))
	f.Add([]byte(`{"records":[` + strings.Join(recordSeeds[8:11], ",") + `]}`))
	f.Add([]byte(`{"records":[{"ID":1},{"Num":2.5},{"Year":null}],"timeout_ms":100,"trace":true}`))
	f.Add([]byte(`{"records":[]}`))
	f.Add([]byte(`{"records":[{}]}`))
	f.Add([]byte(`{"records":[null]}`))
	f.Add([]byte(`{"records":[{"ID":"x"},5]}`))
	f.Add([]byte(`{"records":[{"ID":"x"}],"timeout_ms":-5}`))
	f.Add([]byte(`{"records":[{"ID":"x"}]}trailing`))
	f.Add([]byte(`{"records":{"not":"an array"}}`))
	f.Add([]byte(`{"records":[{"ID":"a"},{"ID":"b"},{"ID":"c"}],"records":[{"Num":"x"}],"Records":[{},{"Num":"y"}]}`))
	f.Add([]byte(`{"records":[{"ID":"a"}],"records":null,"records":[{"Num":"x"}]}`))
	f.Add([]byte(`{"records":[{"ID":"a"}],"records":[],"records":[{"Num":"x"}]}`))
	f.Add([]byte(`{"records":[{"ID":"a"},{}],"records":[{},{"Num":"x"}],"records":[{"ID":"b"},null,{"ID":"c"}]}`))
	f.Add([]byte(`{"record":{"ID":"x"}}`)) // single-record shape: unknown field
	f.Add([]byte(``))
	f.Add([]byte(`nonsense`))
	f.Add([]byte(`{"records":[{"ID":"` + strings.Repeat("a", 5000) + `"}]}`))
	f.Add([]byte(`{"records":[{"ID":"x"},{"ID":"y"},{"ID":"z"},{"ID":"w"}]}`))
	f.Add([]byte(`{"records":[{"ID":"x"},{"ID":"y"},{"ID":"z"},{"ID":5}],"bogus":1}`))
	f.Add([]byte("{\"records\":[{\"\x00\xff\":\"�\"}]}"))

	schema := reqSchema()
	f.Fuzz(func(t *testing.T, data []byte) { checkBatchBody(t, schema, data) })
}
