package serve

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"emgo/internal/table"
)

func reqSchema() *table.Schema {
	return table.MustSchema(
		table.Field{Name: "ID", Kind: table.String},
		table.Field{Name: "Num", Kind: table.String},
		table.Field{Name: "Year", Kind: table.Int},
	)
}

func TestDecodeMatchRequestValid(t *testing.T) {
	body := `{"record":{"ID":"l0","Num":"2008-1","Year":2008},"timeout_ms":250,"trace":true}`
	req, err := DecodeMatchRequest(strings.NewReader(body), 0)
	if err != nil {
		t.Fatal(err)
	}
	if req.TimeoutMS != 250 || !req.Trace || len(req.Record) != 3 {
		t.Fatalf("decoded %+v", req)
	}
	row, err := RecordRow(reqSchema(), req.Record)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Str() != "l0" || row[2].IsNull() {
		t.Fatalf("row = %v", row)
	}
}

func TestDecodeMatchRequestRejections(t *testing.T) {
	cases := []struct {
		name       string
		body       string
		wantStatus int
	}{
		{"empty body", "", 400},
		{"not json", "hello", 400},
		{"wrong top-level type", `[1,2,3]`, 400},
		{"unknown field", `{"record":{"ID":"x"},"bogus":1}`, 400},
		{"missing record", `{"timeout_ms":5}`, 400},
		{"empty record", `{"record":{}}`, 400},
		{"negative timeout", `{"record":{"ID":"x"},"timeout_ms":-1}`, 400},
		{"trailing garbage", `{"record":{"ID":"x"}} extra`, 400},
		{"oversized", `{"record":{"ID":"` + strings.Repeat("a", 2048) + `"}}`, 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeMatchRequest(strings.NewReader(tc.body), 1024)
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want *RequestError", err)
			}
			if re.Status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", re.Status, tc.wantStatus, re.Msg)
			}
		})
	}
}

func TestDecodeMatchRequestAtCapExactlyOK(t *testing.T) {
	body := `{"record":{"ID":"x"}}`
	if _, err := DecodeMatchRequest(strings.NewReader(body), int64(len(body))); err != nil {
		t.Fatalf("body exactly at cap rejected: %v", err)
	}
}

func TestRecordRowUnknownColumn(t *testing.T) {
	_, err := RecordRow(reqSchema(), map[string]any{"Titel": "typo"})
	var re *RequestError
	if !errors.As(err, &re) || re.Status != 400 {
		t.Fatalf("err = %v, want 400 RequestError", err)
	}
	if !strings.Contains(re.Msg, "Titel") {
		t.Fatalf("error should name the bad column: %q", re.Msg)
	}
}

func TestRecordRowMissingAndDirtyCells(t *testing.T) {
	row, err := RecordRow(reqSchema(), map[string]any{
		"ID":   "l0",
		"Year": "not-a-number", // unparseable under Int -> null, like ReadCSV
		// Num absent -> null
	})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Str() != "l0" {
		t.Fatalf("ID = %v", row[0])
	}
	if !row[1].IsNull() {
		t.Fatalf("missing column should be null, got %v", row[1])
	}
	if !row[2].IsNull() {
		t.Fatalf("unparseable int should be null, got %v", row[2])
	}
}

func TestRecordRowNestedValuesBecomeNull(t *testing.T) {
	row, err := RecordRow(reqSchema(), map[string]any{
		"ID": []any{"arrays", "have", "no", "cell", "form"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !row[0].IsNull() {
		t.Fatalf("array value should decode to null, got %v", row[0])
	}
}

// withinBytes fails unless fn, decoding body, allocates at most
// perByte bytes for each byte of it.
func withinBytes(t *testing.T, form, body string, perByte int, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if used, limit := after.TotalAlloc-before.TotalAlloc, uint64(perByte*len(body)); used > limit {
		t.Fatalf("%s: decoding a %d-byte body allocated %d bytes, want at most %d", form, len(body), used, limit)
	}
}

// duplicateKeysBody is a body at maxBytes made of one pair after another,
// closed by last.
func duplicateKeysBody(maxBytes int, pair, last string) string {
	return "{" + strings.Repeat(pair+",", (maxBytes-len(last)-2)/(len(pair)+1)) + last + "}"
}

// dupBytesPerByte bounds what a decode may allocate per body byte. Of
// the ~15 a body of duplicate keys costs, reading the body and the JSON
// decoder's buffer are ~9, the parts kept ~5. Splicing each duplicate
// into one merged text made it quadratic instead: ~10 GB copied for one
// single-record body at the cap, before admission.
const dupBytesPerByte = 20

// TestDuplicateRecordKeysStayLinear: a single-record body at the cap made
// of ~55k duplicate "record" keys decodes, into a row and into the map
// form, in a small multiple of its size, and the last duplicate still
// wins.
func TestDuplicateRecordKeysStayLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are the race runtime's")
	}
	body := duplicateKeysBody(DefaultMaxBodyBytes, `"record":{"ID":"x"}`, `"record":{"ID":"y","Num":"z"}`)
	schema := reqSchema()
	withinBytes(t, "row", body, dupBytesPerByte, func() {
		env, err := decodeMatch(new(bodyReader), strings.NewReader(body), DefaultMaxBodyBytes)
		if err != nil {
			t.Fatal(err)
		}
		row := make(table.Row, schema.Len())
		if err := fillRow(schema, &env.Record, row); err != nil {
			t.Fatal(err)
		}
		if row[0].String() != "y" || row[1].String() != "z" || !row[2].IsNull() {
			t.Errorf("row %v, want the last duplicate's", row)
		}
	})
	withinBytes(t, "map form", body, dupBytesPerByte, func() {
		req, err := DecodeMatchRequest(strings.NewReader(body), DefaultMaxBodyBytes)
		if err != nil {
			t.Fatal(err)
		}
		if len(req.Record) != 2 || req.Record["ID"] != "y" {
			t.Errorf("map form %v, want the last duplicate's", req.Record)
		}
	})
}

// TestDuplicateRecordsKeysStayLinear is the same for a batch body at its
// cap made of ~350k duplicate "records" keys, each merging into the
// first record.
func TestDuplicateRecordsKeysStayLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are the race runtime's")
	}
	body := duplicateKeysBody(DefaultMaxBatchBodyBytes, `"records":[{"ID":"x"}]`, `"records":[{"ID":"y","Num":"z"}]`)
	schema := reqSchema()
	withinBytes(t, "rows", body, dupBytesPerByte, func() {
		env, err := decodeBatch(new(bodyReader), strings.NewReader(body), DefaultMaxBatchBodyBytes, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := recordRows(schema, env.Records.records())
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].String() != "y" || rows[0][1].String() != "z" {
			t.Errorf("rows %v, want the last duplicate's record", rows)
		}
	})
	withinBytes(t, "map form", body, dupBytesPerByte, func() {
		req, err := DecodeBatchRequest(strings.NewReader(body), DefaultMaxBatchBodyBytes, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(req.Records) != 1 || len(req.Records[0]) != 2 || req.Records[0]["ID"] != "y" {
			t.Errorf("map form %v, want the last duplicate's record", req.Records)
		}
	})
}
