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
// finish, which emits exactly one wide event to the access log, offers
// the request to the tail-capture buffer, and feeds the SLO tracker.
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

// Unwrap exposes the underlying writer so http.ResponseController can
// reach Flush and SetWriteDeadline for the streaming transport.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeOf strips the method from a Go 1.22 mux pattern ("POST /v1/match"
// → "/v1/match") for the wide event's route field.
func routeOf(pattern string) string {
	if _, path, ok := strings.Cut(pattern, " "); ok {
		return path
	}
	return pattern
}

// observe wraps one route handler with the request-observability layer.
// trackSLO marks service traffic (match/job routes) whose outcomes burn
// the error budget; ops probes (health, status) get request IDs and
// wide events but do not dilute the SLO.
func (s *Server) observe(route string, trackSLO bool, h http.HandlerFunc) http.HandlerFunc {
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
		ctx := obs.WithRequestID(r.Context(), id)
		ctx = withEvent(ctx, ev)
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
		s.finish(ev, root, trackSLO)
	}
}

// jobRoute is the route a job execution's wide event carries.
const jobRoute = "job"

// finish closes the record of one unit of work — a request, a job
// execution — and is its only writer: it ends the root span, times the
// event from its own start, offers it to the tail buffer, writes the
// access-log line and, for SLO-tracked traffic, feeds the tracker. The
// event's stages come off root wherever the event is kept; a request
// that is neither logged nor retained never builds them.
func (s *Server) finish(ev *obs.WideEvent, root *obs.Span, trackSLO bool) {
	root.End()
	ev.DurationMS = float64(time.Since(ev.Time)) / float64(time.Millisecond)
	// A job's wall time is the size of its input, not a latency: only an
	// unhealthy one is worth a tail slot.
	if ev.Route != jobRoute || ev.Outcome != obs.OutcomeOK {
		s.tailBuf.Add(ev, root)
	}
	s.events.Log(ev, root)
	if trackSLO && !ev.Streamed {
		// Sheds (429) are deliberate policy, not availability failures;
		// 5xx of any kind burns the budget. Streamed fetches are
		// exempt: their duration is the client's read pace, and a
		// multi-minute healthy stream is not a latency breach.
		s.sloTrk.Observe(ev.DurationMS, ev.Status >= 500)
	}
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
