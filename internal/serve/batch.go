package serve

import (
	"encoding/json"
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
	// Trace is the batch's span tree, when asked for.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// batchEnvelope is BatchRequest as the handler decodes it: the records
// kept as their JSON text, for recordRows to walk.
type batchEnvelope struct {
	Records   rawRecords `json:"records"`
	TimeoutMS int        `json:"timeout_ms,omitempty"`
	Trace     bool       `json:"trace,omitempty"`
}

// decodeBatch reads and validates one batch request's envelope, the body
// read into b, enforcing the byte cap itself plus a record-count cap.
func decodeBatch(b *bodyReader, r io.Reader, maxBytes int64, maxRecords int) (*batchEnvelope, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBatchBodyBytes
	}
	if maxRecords <= 0 {
		maxRecords = DefaultMaxBatchRecords
	}
	var env batchEnvelope
	if err := b.decode(r, maxBytes, "batch request", &env); err != nil {
		return nil, err
	}
	records := env.Records.records()
	if len(records) == 0 {
		return nil, badRequest(`batch request needs a non-empty "records" array`)
	}
	if len(records) > maxRecords {
		return nil, &RequestError{
			Status: http.StatusRequestEntityTooLarge,
			Msg:    fmt.Sprintf("batch has %d records, cap is %d (match a whole table offline: emmatch over the deployed spec)", len(records), maxRecords),
		}
	}
	for i := range records {
		if records[i].empty() {
			return nil, badRequest("batch record %d is empty", i)
		}
	}
	if env.TimeoutMS < 0 {
		return nil, badRequest("timeout_ms must be >= 0")
	}
	return &env, nil
}

// DecodeBatchRequest reads and validates one batch request from r,
// enforcing the byte cap itself (like DecodeMatchRequest it is safe on
// raw readers — the fuzz target feeds it arbitrary bytes with no HTTP
// layer around it) plus a record-count cap. It never panics and never
// allocates beyond maxBytes+1 for the body; every failure is a
// *RequestError with a 4xx status. The handler walks the records
// straight into rows; this is the same decode, in map form.
func DecodeBatchRequest(r io.Reader, maxBytes int64, maxRecords int) (*BatchRequest, error) {
	env, err := decodeBatch(new(bodyReader), r, maxBytes, maxRecords)
	if err != nil {
		return nil, err
	}
	recs := env.Records.records()
	req := &BatchRequest{Records: make([]map[string]any, 0, len(recs)), TimeoutMS: env.TimeoutMS, Trace: env.Trace}
	for i := range recs {
		rec, err := recordMap(&recs[i])
		if err != nil {
			return nil, err
		}
		req.Records = append(req.Records, rec)
	}
	return req, nil
}

// handleMatchBatch is the bulk matching endpoint: one admission slot,
// one blocking pass, one matcher pass for the whole batch.
func (s *Server) handleMatchBatch(q *request, r *http.Request) {
	if s.refuseDraining(q) {
		return
	}
	req, err := decodeBatch(&q.body, r.Body, s.cfg.maxBatchBodyBytes, s.cfg.MaxBatchRecords)
	if err != nil {
		s.writeRequestError(q, err)
		return
	}
	rows, err := recordRows(s.left.Schema(), req.Records.records())
	if err != nil {
		s.writeRequestError(q, err)
		return
	}
	left, err := table.FromRows("batch", s.left.Schema(), rows)
	if err != nil {
		s.writeRequestError(q, badRequest("%v", err))
		return
	}

	ctx := q.within(requestBudget(DefaultBatchTimeout, req.TimeoutMS))
	if !s.admit(ctx, q) {
		return
	}
	defer q.slot.Release()

	start := time.Now()
	resps, tally, trace, err := s.matchSet(ctx, left, req.Trace)
	elapsed := time.Since(start)
	if err != nil {
		s.writeRunError(ctx, q, err)
		return
	}
	tally.record(&q.ev)
	results := make([]*MatchResponse, len(resps))
	for i := range resps {
		results[i] = &resps[i]
	}
	q.writeJSON(http.StatusOK, &BatchResponse{
		Results:   results,
		Count:     tally.records,
		Degraded:  tally.degraded,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		Trace:     trace,
	})
}
