package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"emgo/internal/obs"
)

// Request-scoped observability: every route is wrapped in observe(),
// which assigns (or propagates) the request ID, opens the request's
// root span, hands the handler the request's record with its wide event
// to annotate, and — once the response is written — hands both to
// finish, which emits exactly one wide event to the access log.
// Handlers never log; they annotate the event and finish owns emission,
// which is what guarantees the one-event-per-request invariant.

// request is one request's record: what every request pays whatever its
// route — the wide event, the status writer, the root span's slab, the
// body buffer and the deadline — in one value the server keeps in a free
// list, so a request allocates none of it. observe fills it and hands it
// to the route's handler; once finish has logged the request it goes back
// to the list, so nothing may keep it, or a span or context of it, past
// the handler.
type request struct {
	ev obs.WideEvent
	w  statusWriter
	// trace is the root span's slab; ctx is the root span's context, the
	// connection's with the trace in it.
	trace obs.Trace
	ctx   context.Context
	// deadline is ctx ending at the request's deadline (within).
	deadline deadline
	body     bodyReader
	// slot is the request's admission, held while it matches.
	slot Slot
}

// maxPooledBody is the largest body buffer a kept record holds on to; a
// bigger one, a big batch's, is left to the collector.
const maxPooledBody = 64 << 10

// within sets the request's deadline budget from now and returns the
// context that carries it, for admission and the match pipeline.
func (q *request) within(budget time.Duration) context.Context {
	q.deadline = deadline{Context: q.ctx, at: time.Now().Add(budget)}
	return &q.deadline
}

// writeJSON writes one JSON response with status.
func (q *request) writeJSON(status int, v any) {
	q.w.Header().Set("Content-Type", "application/json")
	q.w.WriteHeader(status)
	json.NewEncoder(&q.w).Encode(v) //nolint:errcheck // client gone = nothing to do
}

// writeError writes the JSON error envelope.
func (q *request) writeError(status int, msg string, retryAfter time.Duration) {
	e := ErrorResponse{Error: msg, Status: status}
	if retryAfter > 0 {
		e.RetryAfterS = waitHint(retryAfter)
		q.w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterS))
	}
	q.writeJSON(status, e)
}

// statusWriter captures the status code and body bytes a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// routeOf strips the method from a Go 1.22 mux pattern ("POST /v1/match"
// → "/v1/match") for the wide event's route field.
func routeOf(pattern string) string {
	if _, path, ok := strings.Cut(pattern, " "); ok {
		return path
	}
	return pattern
}

// observe wraps one route handler with the request-observability layer:
// the handler answers r through q.w and annotates q.ev.
func (s *Server) observe(route string, h func(q *request, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, ok := obs.SanitizeRequestID(r.Header.Get("X-Request-Id"))
		if !ok {
			id = obs.NewRequestID()
		}
		// Echo the ID before the handler runs so every response — 200s,
		// sheds, timeouts — carries the client's join key.
		w.Header().Set("X-Request-Id", id)

		q := s.reqs.Get()
		q.ev = obs.WideEvent{Time: time.Now(), RequestID: id, Route: route, Method: r.Method}
		if r.ContentLength > 0 {
			q.ev.BytesIn = r.ContentLength
		}
		q.w = statusWriter{ResponseWriter: w}
		var root *obs.Span
		q.ctx, root = q.trace.Open(r.Context(), "serve.http")

		h(q, r)
		if q.w.status == 0 {
			// The handler wrote nothing; net/http will send 200.
			q.w.status = http.StatusOK
		}
		q.ev.Status = q.w.status
		q.ev.BytesOut = q.w.bytes
		if q.ev.Outcome == "" {
			q.ev.Outcome = deriveOutcome(q.w.status, q.ev.Degraded, s.adm.Draining())
		}
		s.finish(&q.ev, root)

		// Give the record back, dropping what it refers to of this
		// request; the next Open empties its trace.
		q.w, q.ctx, q.deadline = statusWriter{}, nil, deadline{}
		if q.body.buf.Cap() > maxPooledBody {
			q.body.buf = bytes.Buffer{}
		}
		s.reqs.Put(q)
	}
}

// finish closes the record of one request and is its only writer: it
// ends the root span, times the event from its own start and writes the
// access-log line. The line's stages come off root; a request the log
// samples away never reads them.
func (s *Server) finish(ev *obs.WideEvent, root *obs.Span) {
	root.End()
	ev.DurationMS = float64(time.Since(ev.Time)) / float64(time.Millisecond)
	s.events.Log(ev, root)
}

// deriveOutcome classifies a finished request for the wide event.
func deriveOutcome(status int, degraded, draining bool) string {
	switch {
	case status == http.StatusTooManyRequests:
		return obs.OutcomeShed
	case status == http.StatusServiceUnavailable:
		if draining {
			return obs.OutcomeDraining
		}
		return obs.OutcomeError
	case status == http.StatusGatewayTimeout:
		return obs.OutcomeTimeout
	case status >= 500:
		return obs.OutcomeError
	case status >= 400:
		return obs.OutcomeBadRequest
	case degraded:
		return obs.OutcomeDegraded
	default:
		return obs.OutcomeOK
	}
}

// Admission verdicts recorded in the wide event.
const (
	AdmissionAdmitted        = "admitted"
	AdmissionShedQueueFull   = "shed_queue_full"
	AdmissionShedDraining    = "shed_draining"
	AdmissionDeadlineInQueue = "deadline_in_queue"
)

// annotateAdmission records the admission verdict and queue wait on the
// request's wide event.
func annotateAdmission(ev *obs.WideEvent, verdict string, wait time.Duration) {
	ev.Admission = verdict
	ev.QueueWaitMS = float64(wait) / float64(time.Millisecond)
}
