package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"emgo/internal/table"
)

// DefaultMaxBodyBytes caps a match request body. Match requests carry
// one record; a megabyte of JSON is already three orders of magnitude
// past any legitimate use.
const DefaultMaxBodyBytes = 1 << 20

// MatchRequest is the wire form of one matching query: a single left
// record to match against the deployed right table.
type MatchRequest struct {
	// Record maps left-table column names to values. Values may be JSON
	// strings, numbers, booleans, or null; they are parsed under the
	// left schema's column kinds (unparseable cells become nulls, the
	// same dirty-data posture the batch pipeline takes).
	Record map[string]any `json:"record"`
	// TimeoutMS optionally lowers the server's per-request deadline for
	// this request (it can never raise it).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Trace asks for the span tree of this request in the response.
	Trace bool `json:"trace,omitempty"`
}

// RequestError is a client-side problem with a request: decode failures,
// unknown columns, oversized bodies. Handlers map it to a 4xx status.
type RequestError struct {
	Status int    // HTTP status to return
	Msg    string // safe to echo to the client
}

// Error implements error.
func (e *RequestError) Error() string { return e.Msg }

// badRequest builds a 400-level RequestError.
func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Status: 400, Msg: fmt.Sprintf(format, args...)}
}

// decodeBody is the one body reader behind the three request decoders:
// it reads one byte past maxBytes (so "exactly at the cap" and "over the
// cap" are distinguishable), maps an http.MaxBytesReader underneath —
// which errors before our own limit does — to the same 413, refuses an
// empty body, and decodes exactly one JSON document into dst with
// unknown fields rejected and numbers kept as json.Number. Trailing
// data after the document is a malformed request, not an ignorable
// suffix. noun names the request kind in the client-facing messages.
func decodeBody(r io.Reader, maxBytes int64, noun string, dst any) error {
	data, err := io.ReadAll(io.LimitReader(r, maxBytes+1))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &RequestError{Status: http.StatusRequestEntityTooLarge, Msg: noun + " body too large"}
		}
		return badRequest("read %s body: %v", noun, err)
	}
	if int64(len(data)) > maxBytes {
		return &RequestError{
			Status: http.StatusRequestEntityTooLarge,
			Msg:    fmt.Sprintf("%s body exceeds %d bytes", noun, maxBytes),
		}
	}
	if len(data) == 0 {
		return badRequest("empty %s body", noun)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	if err := dec.Decode(dst); err != nil {
		return badRequest("parse %s JSON: %v", noun, err)
	}
	if dec.More() {
		return badRequest("%s body has trailing data after the JSON document", noun)
	}
	return nil
}

// DecodeMatchRequest reads and validates one match request from r,
// which should already be wrapped by http.MaxBytesReader (the decoder
// additionally enforces maxBytes itself so it is safe on raw readers —
// the fuzz target feeds it arbitrary bytes with no HTTP layer around
// it). It never panics on malformed input; every failure is a
// *RequestError with a 4xx status.
func DecodeMatchRequest(r io.Reader, maxBytes int64) (*MatchRequest, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBodyBytes
	}
	var req MatchRequest
	if err := decodeBody(r, maxBytes, "request", &req); err != nil {
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

// RecordRow converts a decoded record into a row under the given
// schema. Unknown column names are a client error (a typoed column
// silently matching nothing is the worst failure mode); missing columns
// become nulls.
func RecordRow(schema *table.Schema, record map[string]any) (table.Row, error) {
	for name := range record {
		if !schema.Has(name) {
			return nil, badRequest("unknown column %q (left schema: %s)", name, schema)
		}
	}
	row := make(table.Row, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		f := schema.Field(i)
		raw, present := record[f.Name]
		if !present || raw == nil {
			row[i] = table.Null(f.Kind)
			continue
		}
		row[i] = parseCell(raw, f.Kind)
	}
	return row, nil
}

// parseCell renders one JSON value as text and parses it under the
// column kind; unparseable cells become nulls, matching ReadCSV.
func parseCell(raw any, kind table.Kind) table.Value {
	var text string
	switch v := raw.(type) {
	case string:
		text = v
	case json.Number:
		text = v.String()
	case bool:
		text = strconv.FormatBool(v)
	default:
		// Arrays and objects have no cell rendering; treat as missing.
		return table.Null(kind)
	}
	val, err := table.Parse(text, kind)
	if err != nil {
		return table.Null(kind)
	}
	return val
}

// MatchResponse is the wire form of a match answer.
type MatchResponse struct {
	// Matches are the final matched right records, sure-rule matches
	// first, then surviving learned matches, each carrying provenance.
	Matches []Match `json:"matches"`
	// Degraded is true when the learned matcher did not answer (breaker
	// open, matcher failure or timeout, no matcher deployed, or a blocker
	// failure leaving it no candidates) and the response came from the
	// rule-only path.
	Degraded bool `json:"degraded"`
	// DegradedReason says why, when Degraded: "breaker_open",
	// "matcher_error", "matcher_timeout", "no_matcher" or
	// "blocker_error" (the Reason* constants).
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Candidates is how many blocked candidate pairs were considered.
	Candidates int `json:"candidates"`
	// Vetoed is how many learned matches the negative rules flipped.
	Vetoed int `json:"vetoed"`
	// ElapsedMS is server-side wall time for the request.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Breaker is the breaker state observed by this request.
	Breaker string `json:"breaker"`
	// Trace is the request's span tree, when asked for.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// Match is one matched right record.
type Match struct {
	// RightID is the right record's identifier under the configured ID
	// column.
	RightID string `json:"right_id"`
	// RightIndex is the right row index (stable for this loaded table).
	RightIndex int `json:"right_index"`
	// Source is "rule:<name>" for sure-rule matches, "matcher" for
	// learned matches.
	Source string `json:"source"`
	// Score is the matcher's P(match) when the matcher is probabilistic
	// and produced this match (null otherwise).
	Score *float64 `json:"score,omitempty"`
}

// ErrorResponse is the JSON error envelope every non-2xx answer uses.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterS echoes the Retry-After header for JSON-only clients.
	RetryAfterS int `json:"retry_after_s,omitempty"`
	// Status echoes the HTTP status code, so the body alone tells a shed
	// answer (429, retryable) from a failed one.
	Status int `json:"status"`
}

// waitHint converts a Retry-After duration to whole seconds (min 1).
func waitHint(d time.Duration) int {
	s := int(d / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
