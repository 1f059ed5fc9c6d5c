package serve

import (
	"context"
	"net/http"
	"strings"
	"time"

	"emgo/internal/obs"
)

// Request-scoped observability: every route is wrapped in observe(),
// which assigns (or propagates) the request ID, opens the request's
// root span, carries a mutable wide event through context for handlers
// to annotate, and — once the response is written — hands both to
// finish, which emits exactly one wide event to the access log.
// Handlers never log; they annotate the event and finish owns emission,
// which is what guarantees the one-event-per-request invariant.

type eventKey struct{}

// withEvent stores the request's mutable wide event in ctx.
func withEvent(ctx context.Context, ev *obs.WideEvent) context.Context {
	return context.WithValue(ctx, eventKey{}, ev)
}

// eventFrom returns the request's wide event, for the handler to
// annotate in place. Every route is mounted through observe, so a
// handler always has one.
func eventFrom(ctx context.Context) *obs.WideEvent {
	ev, _ := ctx.Value(eventKey{}).(*obs.WideEvent)
	return ev
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

// observe wraps one route handler with the request-observability layer.
func (s *Server) observe(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, ok := obs.SanitizeRequestID(r.Header.Get("X-Request-Id"))
		if !ok {
			id = obs.NewRequestID()
		}
		// Echo the ID before the handler runs so every response — 200s,
		// sheds, timeouts — carries the client's join key.
		w.Header().Set("X-Request-Id", id)

		ev := &obs.WideEvent{Time: time.Now(), RequestID: id, Route: route, Method: r.Method}
		if r.ContentLength > 0 {
			ev.BytesIn = r.ContentLength
		}
		ctx := withEvent(r.Context(), ev)
		ctx, root := obs.NewTrace(ctx, "serve.http")

		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		if sw.status == 0 {
			// The handler wrote nothing; net/http will send 200.
			sw.status = http.StatusOK
		}
		ev.Status = sw.status
		ev.BytesOut = sw.bytes
		if ev.Outcome == "" {
			ev.Outcome = deriveOutcome(sw.status, ev.Degraded, s.draining.Load())
		}
		s.finish(ev, root)
	}
}

// finish closes the record of one request and is its only writer: it
// ends the root span, times the event from its own start and writes the
// access-log line. The line's stages come off root; a request the log
// samples away never builds them.
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
