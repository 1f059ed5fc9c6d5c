package obs

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Wide-event structured logging: the serving tier emits exactly one
// JSON document per request — the "wide event" — carrying everything an
// operator needs to answer "what happened to request X?" without
// correlating scattered log lines: identity, route, outcome, admission
// verdict, degradation reason, stage timings, queue wait and sizes.
// Lines use the log/slog JSON-handler shape
// (`"msg":"request"` plus flat keys), so the access log is greppable
// with jq and ships to any structured-log pipeline unchanged — but they
// are rendered by a hand-rolled append encoder, because the event sits
// on the request hot path and reflection-style formatting was measured
// at several microseconds per line.
//
// Volume control is outcome-aware sampling: successes are sampled 1 in
// N (configurable), while errors, timeouts, sheds, degraded responses
// and ok requests of slowMS or more are always logged — the traffic you
// page on is never the traffic that was sampled away.

// WideEvent is one request's complete record. Zero-valued fields are
// omitted from the log line, so cheap routes emit short documents.
type WideEvent struct {
	// Time is when the request entered the handler.
	Time time.Time `json:"time"`
	// RequestID is the server-assigned or propagated X-Request-Id.
	RequestID string `json:"request_id"`
	// Route is the matched route pattern ("/v1/match", "/v1/status").
	Route string `json:"route"`
	// Method is the HTTP method.
	Method string `json:"method,omitempty"`
	// Status is the HTTP status written.
	Status int `json:"status"`
	// Outcome classifies the request (see the Outcome* constants).
	Outcome string `json:"outcome"`
	// DurationMS is handler wall time.
	DurationMS float64 `json:"duration_ms"`
	// QueueWaitMS is time spent waiting for an admission slot.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// Admission is the gate's verdict: admitted, shed_queue_full,
	// shed_draining, deadline_in_queue ("" when the route has no gate).
	Admission string `json:"admission,omitempty"`
	// Degraded and DegradedReason mirror the response envelope.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Records / Candidates / Matches size the matching work: records
	// carried, candidate pairs considered, matches returned.
	Records    int `json:"records,omitempty"`
	Candidates int `json:"candidates,omitempty"`
	Matches    int `json:"matches,omitempty"`
	// BytesIn / BytesOut are request/response body sizes.
	BytesIn  int64 `json:"bytes_in,omitempty"`
	BytesOut int64 `json:"bytes_out,omitempty"`
	// Err is the terminal error message, when the request failed.
	Err string `json:"error,omitempty"`
}

// slowMS is the duration at which an ok request is logged whatever the
// sampling rate: the latency bound of emload's default objective, so the
// log keeps every request that objective counts against the server.
const slowMS = 500

// EventLog is the wide-event sink. The nil *EventLog is valid and every
// method is a no-op, the same posture as the nil *Span, so the
// serving tier logs unconditionally and pays one nil check when access
// logging is off.
type EventLog struct {
	w       io.Writer
	sampleN int64
	seen    atomic.Int64

	mu     sync.Mutex  // serializes encode+write; also guards buf and stages
	buf    []byte      // reused encode buffer
	stages []stageTime // reused list of a line's stages
}

// NewEventLog builds a wide-event sink writing JSON lines to w. sampleN
// controls success sampling: log 1 in sampleN "ok" events (<= 1 logs
// all). Errors, sheds, timeouts, degraded responses and ok events of
// slowMS or more are always logged regardless.
func NewEventLog(w io.Writer, sampleN int) *EventLog {
	if w == nil {
		return nil
	}
	if sampleN < 1 {
		sampleN = 1
	}
	return &EventLog{w: w, sampleN: int64(sampleN)}
}

// Log writes one wide event (or samples it away); root is the request's
// span tree, the source of the line's stages. A slow ok event is judged
// before the sampling counter moves, so it does not shift which plain ok
// events are sampled. Safe on nil and safe for concurrent use.
func (l *EventLog) Log(ev *WideEvent, root *Span) {
	if l == nil || ev == nil {
		return
	}
	if ev.Outcome == OutcomeOK && ev.DurationMS < slowMS && l.sampleN > 1 && l.seen.Add(1)%l.sampleN != 1 {
		return
	}
	l.mu.Lock()
	l.stages = root.sortedStages(l.stages)
	l.buf = ev.appendJSON(l.buf[:0], l.stages)
	l.buf = append(l.buf, '\n')
	l.w.Write(l.buf)
	l.mu.Unlock()
}

// appendJSON renders the event as one JSON document, omitting zero
// fields, in the slog JSON-handler line shape (leading "msg").
func (e *WideEvent) appendJSON(b []byte, stages []stageTime) []byte {
	b = append(b, `{"msg":"request","time":"`...)
	b = e.Time.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","request_id":`...)
	b = appendJSONString(b, e.RequestID)
	b = append(b, `,"route":`...)
	b = appendJSONString(b, e.Route)
	b = appendStr(b, `,"method":`, e.Method)
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(e.Status), 10)
	b = append(b, `,"outcome":`...)
	b = appendJSONString(b, e.Outcome)
	b = append(b, `,"duration_ms":`...)
	b = appendJSONFloat(b, e.DurationMS)
	if e.QueueWaitMS > 0 {
		b = append(b, `,"queue_wait_ms":`...)
		b = appendJSONFloat(b, e.QueueWaitMS)
	}
	b = appendStr(b, `,"admission":`, e.Admission)
	if e.Degraded {
		b = append(b, `,"degraded":true,"degraded_reason":`...)
		b = appendJSONString(b, e.DegradedReason)
	}
	b = appendInt(b, `,"records":`, int64(e.Records))
	b = appendInt(b, `,"candidates":`, int64(e.Candidates))
	b = appendInt(b, `,"matches":`, int64(e.Matches))
	b = appendInt(b, `,"bytes_in":`, e.BytesIn)
	b = appendInt(b, `,"bytes_out":`, e.BytesOut)
	if len(stages) > 0 {
		b = append(b, `,"stages":{`...)
		for i, st := range stages {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, st.name)
			b = append(b, ':')
			b = appendJSONFloat(b, st.ms)
		}
		b = append(b, '}')
	}
	b = appendStr(b, `,"error":`, e.Err)
	return append(b, '}')
}

// appendStr and appendInt render one optional field — key is its
// `,"name":` prefix — and nothing at the zero value.
func appendStr(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return appendJSONString(append(b, key...), v)
}

func appendInt(b []byte, key string, v int64) []byte {
	if v <= 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendJSONFloat renders f in the shortest decimal form; JSON has no
// Inf/NaN, so non-finite values (never produced by timers, but cheap to
// guard) render as 0.
func appendJSONFloat(b []byte, f float64) []byte {
	if f != f || f > 1e308 || f < -1e308 {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// appendJSONString quotes s as a JSON string. The fast path copies runs
// of plain bytes; quotes, backslashes, control characters, and invalid
// UTF-8 take the escape path (error messages can carry anything).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	from := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r != utf8.RuneError || size > 1 {
				i += size // valid multi-byte rune passes through raw
				continue
			}
		}
		b = append(b, s[from:i]...)
		switch c {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			if c >= utf8.RuneSelf {
				// Invalid UTF-8 byte: substitute the replacement rune.
				b = append(b, "�"...)
			} else {
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
		}
		i++
		from = i
	}
	b = append(b, s[from:]...)
	return append(b, '"')
}
