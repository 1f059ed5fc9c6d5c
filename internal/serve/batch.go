package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"emgo/internal/table"
)

// Batch defaults. A batch carries many records, so its body cap is
// wider than the single-record cap; the record-count cap is what bounds
// how long one batch can hold an admission slot.
const (
	DefaultMaxBatchRecords   = 256
	DefaultMaxBatchBodyBytes = 8 << 20
	DefaultBatchTimeout      = 30 * time.Second
)

// BatchRequest is the wire form of one bulk matching query: a list of
// left records matched against the deployed right table in one
// amortized pipeline pass.
type BatchRequest struct {
	// Records are the left records, each in the same shape as
	// MatchRequest.Record.
	Records []map[string]any `json:"records"`
	// TimeoutMS optionally lowers the server's batch deadline for this
	// request (it can never raise it).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Trace asks for the span tree of the batch in the response.
	Trace bool `json:"trace,omitempty"`
}

// BatchResponse is the wire form of a bulk match answer. Results align
// with the request's records by index.
type BatchResponse struct {
	Results []*MatchResponse `json:"results"`
	// Count is len(Results), echoed for cheap client-side sanity checks.
	Count int `json:"count"`
	// Degraded counts results answered without the learned matcher.
	Degraded int `json:"degraded"`
	// ElapsedMS is server-side wall time for the whole batch.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Breaker is the breaker state observed by this batch.
	Breaker string `json:"breaker"`
	// Trace is the batch's span tree, when asked for.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// DecodeBatchRequest reads and validates one batch request from r,
// enforcing the byte cap itself (like DecodeMatchRequest it is safe on
// raw readers — the fuzz target feeds it arbitrary bytes with no HTTP
// layer around it) plus a record-count cap. It never panics and never
// allocates beyond maxBytes+1 for the body; every failure is a
// *RequestError with a 4xx status.
func DecodeBatchRequest(r io.Reader, maxBytes int64, maxRecords int) (*BatchRequest, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBatchBodyBytes
	}
	if maxRecords <= 0 {
		maxRecords = DefaultMaxBatchRecords
	}
	var req BatchRequest
	if err := decodeBody(r, maxBytes, "batch request", &req); err != nil {
		return nil, err
	}
	if len(req.Records) == 0 {
		return nil, badRequest(`batch request needs a non-empty "records" array`)
	}
	if len(req.Records) > maxRecords {
		return nil, &RequestError{
			Status: http.StatusRequestEntityTooLarge,
			Msg:    fmt.Sprintf("batch has %d records, cap is %d (submit a job for larger inputs)", len(req.Records), maxRecords),
		}
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

// recordRows validates and converts request records into rows under the
// left schema; a bad record is reported with its index.
func recordRows(schema *table.Schema, records []map[string]any) ([]table.Row, error) {
	rows := make([]table.Row, len(records))
	for i, rec := range records {
		row, err := RecordRow(schema, rec)
		if err != nil {
			var re *RequestError
			if errors.As(err, &re) {
				return nil, &RequestError{Status: re.Status, Msg: fmt.Sprintf("record %d: %s", i, re.Msg)}
			}
			return nil, badRequest("record %d: %v", i, err)
		}
		rows[i] = row
	}
	return rows, nil
}

// rowsTable assembles request rows into a left-schema table.
func (s *Server) rowsTable(name string, rows []table.Row) (*table.Table, error) {
	t := table.New(name, s.left.Schema())
	for _, row := range rows {
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// handleMatchBatch is the bulk matching endpoint: one admission slot,
// one blocking pass, one matcher pass for the whole batch.
func (s *Server) handleMatchBatch(w http.ResponseWriter, r *http.Request) {
	ev := eventFrom(r.Context())
	if s.refuseDraining(w, ev) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBatchBodyBytes)
	req, err := DecodeBatchRequest(r.Body, s.cfg.maxBatchBodyBytes, s.cfg.MaxBatchRecords)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	rows, err := recordRows(s.left.Schema(), req.Records)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	left, err := s.rowsTable("batch", rows)
	if err != nil {
		s.writeRequestError(w, badRequest("%v", err))
		return
	}

	budget := requestBudget(DefaultBatchTimeout, req.TimeoutMS)
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	release := s.admit(ctx, w, ev)
	if release == nil {
		return
	}
	defer release()

	start := time.Now()
	resps, tally, trace, err := s.matchSet(ctx, left, s.breaker, req.Trace)
	elapsed := time.Since(start)
	if err != nil {
		s.writeRunError(ctx, w, ev, err)
		return
	}
	tally.record(ev)
	writeJSON(w, http.StatusOK, &BatchResponse{
		Results:   resps,
		Count:     tally.records,
		Degraded:  tally.degraded,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		Breaker:   tally.breaker,
		Trace:     trace,
	})
}
