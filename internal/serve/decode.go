package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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

// bodyReader reads request bodies into one buffer, reused from body to
// body.
type bodyReader struct {
	buf bytes.Buffer
	lr  io.LimitedReader
}

// decode is the one body reader behind the three request decoders: it
// reads one byte past maxBytes (so "exactly at the cap" and "over the
// cap" are distinguishable), maps an http.MaxBytesReader underneath —
// which errors before our own limit does — to the same 413, refuses an
// empty body, and decodes exactly one JSON document into dst with
// unknown fields rejected and numbers kept as json.Number. Trailing
// data after the document is a malformed request, not an ignorable
// suffix. noun names the request kind in the client-facing messages.
func (b *bodyReader) decode(r io.Reader, maxBytes int64, noun string, dst any) error {
	b.buf.Reset()
	b.lr = io.LimitedReader{R: r, N: maxBytes + 1}
	_, err := b.buf.ReadFrom(&b.lr)
	b.lr.R = nil
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &RequestError{Status: http.StatusRequestEntityTooLarge, Msg: noun + " body too large"}
		}
		return badRequest("read %s body: %v", noun, err)
	}
	if int64(b.buf.Len()) > maxBytes {
		return &RequestError{
			Status: http.StatusRequestEntityTooLarge,
			Msg:    fmt.Sprintf("%s body exceeds %d bytes", noun, maxBytes),
		}
	}
	if b.buf.Len() == 0 {
		return badRequest("empty %s body", noun)
	}
	dec := json.NewDecoder(&b.buf)
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

// matchEnvelope is MatchRequest as the handler decodes it: the record
// kept as its JSON text, for fillRow to walk.
type matchEnvelope struct {
	Record    rawRecord `json:"record"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
	Trace     bool      `json:"trace,omitempty"`
}

// decodeMatch reads and validates one match request's envelope, the
// body read into b.
func decodeMatch(b *bodyReader, r io.Reader, maxBytes int64) (*matchEnvelope, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBodyBytes
	}
	var env matchEnvelope
	if err := b.decode(r, maxBytes, "request", &env); err != nil {
		return nil, err
	}
	if env.Record.empty() {
		return nil, badRequest(`request needs a non-empty "record" object`)
	}
	if env.TimeoutMS < 0 {
		return nil, badRequest("timeout_ms must be >= 0")
	}
	return &env, nil
}

// DecodeMatchRequest reads and validates one match request from r,
// which should already be wrapped by http.MaxBytesReader (the decoder
// additionally enforces maxBytes itself so it is safe on raw readers —
// the fuzz target feeds it arbitrary bytes with no HTTP layer around
// it). It never panics on malformed input; every failure is a
// *RequestError with a 4xx status. The handler walks the record
// straight into a row; this is the same decode, in map form.
func DecodeMatchRequest(r io.Reader, maxBytes int64) (*MatchRequest, error) {
	env, err := decodeMatch(new(bodyReader), r, maxBytes)
	if err != nil {
		return nil, err
	}
	rec, err := recordMap(&env.Record)
	if err != nil {
		return nil, err
	}
	return &MatchRequest{Record: rec, TimeoutMS: env.TimeoutMS, Trace: env.Trace}, nil
}

// RecordRow converts a map-form record into a row under the given
// schema, each value read as the cell its JSON is. Unknown column names
// are a client error (a typoed column silently matching nothing is the
// worst failure mode); missing columns become nulls.
func RecordRow(schema *table.Schema, record map[string]any) (table.Row, error) {
	for name := range record {
		if !schema.Has(name) {
			return nil, badRequest("unknown column %q (left schema: %s)", name, schema)
		}
	}
	row := make(table.Row, schema.Len())
	for i := range row {
		f := schema.Field(i)
		row[i] = cellOf(record[f.Name]).value(f.Kind)
	}
	return row, nil
}

// MatchResponse is the wire form of a match answer.
type MatchResponse struct {
	// Matches are the final matched right records, sure-rule matches
	// first, then surviving learned matches, each carrying provenance.
	Matches []Match `json:"matches"`
	// Degraded is true when the learned matcher did not answer (it ran
	// out of the request's ML sub-budget, or no matcher is deployed) and
	// the response came from the rule-only path.
	Degraded bool `json:"degraded"`
	// DegradedReason says why, when Degraded: "matcher_timeout" or
	// "no_matcher" (the Reason* constants).
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Candidates is how many blocked candidate pairs were considered.
	Candidates int `json:"candidates"`
	// Vetoed is how many learned matches the negative rules flipped.
	Vetoed int `json:"vetoed"`
	// ElapsedMS is server-side wall time for the request.
	ElapsedMS float64 `json:"elapsed_ms"`
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
	return max(int(d/time.Second), 1)
}
