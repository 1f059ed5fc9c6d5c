package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"emgo/internal/obs"
)

// JobSubmitRequest is the wire form of a job submission: the whole left
// table to match, plus optional shard geometry.
type JobSubmitRequest struct {
	// Records are the left records, each in the same shape as
	// MatchRequest.Record.
	Records []map[string]any `json:"records"`
	// ShardSize optionally overrides the server's records-per-shard.
	ShardSize int `json:"shard_size,omitempty"`
}

// DecodeJobRequest reads and validates one job submission from r under
// byte and record caps. Like the other decoders it enforces the byte
// cap itself, never panics, and returns *RequestError with a 4xx status
// for every malformed input.
func DecodeJobRequest(r io.Reader, maxBytes int64, maxRecords int) (*JobSubmitRequest, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultJobMaxBodyBytes
	}
	if maxRecords <= 0 {
		maxRecords = DefaultJobMaxRecords
	}
	var req JobSubmitRequest
	if err := decodeBody(r, maxBytes, "job request", &req); err != nil {
		return nil, err
	}
	if len(req.Records) == 0 {
		return nil, badRequest(`job needs a non-empty "records" array`)
	}
	if len(req.Records) > maxRecords {
		return nil, &RequestError{
			Status: http.StatusRequestEntityTooLarge,
			Msg:    fmt.Sprintf("job has %d records, cap is %d", len(req.Records), maxRecords),
		}
	}
	for i, rec := range req.Records {
		if len(rec) == 0 {
			return nil, badRequest("job record %d is empty", i)
		}
	}
	if req.ShardSize < 0 {
		return nil, badRequest("shard_size must be >= 0")
	}
	return &req, nil
}

// jobsOrUnavailable answers 503 when the job tier is disabled and
// returns the manager otherwise.
func (s *Server) jobsOrUnavailable(w http.ResponseWriter) *Jobs {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, "job tier disabled (start emserve with -job-dir)", 0)
		return nil
	}
	return s.jobs
}

// handleJobSubmit accepts a bulk job: validate, persist durably,
// enqueue, answer 202 with the job's status document (or the existing
// job's — submission is idempotent by content). A full queue sheds with
// 429 + Retry-After through the same hint path online shedding uses.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	jm := s.jobsOrUnavailable(w)
	if jm == nil {
		return
	}
	if s.refuseDraining(w, eventFrom(r.Context())) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, DefaultJobMaxBodyBytes)
	req, err := DecodeJobRequest(r.Body, DefaultJobMaxBodyBytes, jm.cfg.maxRecords)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	job, err := jm.Submit(req.Records, req.ShardSize, obs.RequestID(r.Context()))
	switch {
	case errors.Is(err, ErrJobShed):
		writeError(w, http.StatusTooManyRequests, "job queue full", s.adm.RetryAfter())
		return
	case err != nil:
		s.writeRequestError(w, err)
		return
	}
	eventFrom(r.Context()).JobID = job.ID
	writeJSON(w, http.StatusAccepted, job.Status())
}

// handleJobStatus is the poll endpoint.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	jm := s.jobsOrUnavailable(w)
	if jm == nil {
		return
	}
	job := jm.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "unknown job", 0)
		return
	}
	eventFrom(r.Context()).JobID = job.ID
	writeJSON(w, http.StatusOK, job.Status())
}

// handleJobResults serves a completed job's results over the one
// results transport: an NDJSON stream walked shard by shard, resumable
// from any `?cursor=` a previous connection was handed (stream.go). An
// incomplete job answers 409 with its state; a bad or foreign cursor is
// the client's error; a draining server starts no stream — the client's
// cursor stays valid for the next instance.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	jm := s.jobsOrUnavailable(w)
	if jm == nil {
		return
	}
	job := jm.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "unknown job", 0)
		return
	}
	ev := eventFrom(r.Context())
	ev.JobID = job.ID
	if st := job.State(); st != JobCompleted {
		writeError(w, http.StatusConflict, fmt.Sprintf("job is %s, not completed", st), 0)
		return
	}
	cur := Cursor{Job: job.ID, Matcher: jm.matcherChecksum()}
	if rawCursor := r.URL.Query().Get("cursor"); rawCursor != "" {
		c, err := jm.parseCursorFor(job, rawCursor)
		if err != nil {
			obs.C("serve.stream.bad_cursor").Inc()
			s.writeRequestError(w, err)
			return
		}
		cur = c
		obs.C("serve.stream.resumed").Inc()
	}
	if s.refuseDraining(w, ev) {
		return
	}
	s.streamJobResults(w, r, jm, job, cur)
}
