package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed unit of pipeline work (a blocker join, a vectorize
// fan-out, a workflow stage). Spans nest: children created through
// StartSpan carry parent/child structure into the exported trace tree.
// The nil *Span is valid and every method on it is a no-op, so
// instrumented code never checks whether tracing is active.
type Span struct {
	trace *trace

	name     string
	start    time.Time
	end      time.Time
	items    int64
	outcome  string
	attrs    map[string]string
	events   []EventData
	children []*Span
}

// trace owns the mutex all spans of one tree share. Stage fan-outs touch
// spans from worker goroutines, so every mutation locks.
type trace struct{ mu sync.Mutex }

type spanKey struct{}

// NewTrace opens a trace rooted at a span with the given name and
// returns a context carrying it. The caller ends the root with End and
// exports it with Snapshot.
func NewTrace(ctx context.Context, name string) (context.Context, *Span) {
	root := &Span{trace: &trace{}, name: name, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, root), root
}

// SpanFromContext returns the active span, or nil when the context
// carries no trace.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's active span and returns a
// context with the child active. With no trace in ctx it returns ctx
// and a nil span, so untraced runs pay only a context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := &Span{trace: parent.trace, name: name, start: time.Now()}
	parent.trace.mu.Lock()
	parent.children = append(parent.children, child)
	parent.trace.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, child), child
}

// End marks the span finished. Later Ends are ignored. Safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.trace.mu.Unlock()
}

// SetItems records how many work items the span processed (pairs
// blocked, vectors built, rows predicted). Safe on nil.
func (s *Span) SetItems(n int) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.items = int64(n)
	s.trace.mu.Unlock()
}

// SetOutcome records how the span ended, in the Outcome* vocabulary.
// Safe on nil.
func (s *Span) SetOutcome(outcome string) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.outcome = outcome
	s.trace.mu.Unlock()
}

// Annotate attaches a key/value attribute (blocker name, matcher name).
// Safe on nil.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = value
	s.trace.mu.Unlock()
}

// Event appends a timestamped event (a checkpoint note) to the span.
// Safe on nil.
func (s *Span) Event(kind, detail string) {
	if s == nil {
		return
	}
	e := EventData{Time: time.Now(), Kind: kind, Detail: detail}
	s.trace.mu.Lock()
	s.events = append(s.events, e)
	s.trace.mu.Unlock()
}

// EventData is one timestamped span event in the exported trace.
type EventData struct {
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail,omitempty"`
}

// SpanData is the JSON form of a span subtree.
type SpanData struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	// DurationMS is wall time in milliseconds; for an unfinished span it
	// is the time elapsed when the snapshot was taken.
	DurationMS float64           `json:"duration_ms"`
	Items      int64             `json:"items,omitempty"`
	Outcome    string            `json:"outcome,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Events     []EventData       `json:"events,omitempty"`
	Children   []*SpanData       `json:"children,omitempty"`
}

// Snapshot exports the span and its descendants as a trace tree. Safe
// on nil (returns nil).
func (s *Span) Snapshot() *SpanData {
	if s == nil {
		return nil
	}
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Span) snapshotLocked() *SpanData {
	_, ms, _ := s.stage()
	d := &SpanData{
		Name:       s.name,
		Start:      s.start,
		DurationMS: ms,
		Items:      s.items,
		Outcome:    s.outcome,
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			d.Attrs[k] = v
		}
	}
	if len(s.events) > 0 {
		d.Events = append([]EventData(nil), s.events...)
	}
	for _, c := range s.children {
		d.Children = append(d.Children, c.snapshotLocked())
	}
	return d
}

// stage reads a live span as the flattening walk sees a node; the caller
// holds the trace lock. An unfinished span is measured to now.
func (s *Span) stage() (name string, ms float64, children []*Span) {
	end := s.end
	if end.IsZero() {
		end = time.Now()
	}
	return s.name, float64(end.Sub(s.start)) / float64(time.Millisecond), s.children
}

func (d *SpanData) stage() (string, float64, []*SpanData) {
	return d.Name, d.DurationMS, d.Children
}

// stageDurations is the one flattening walk, over a span tree in either
// form: stage-name → wall-ms of every node under roots, the first
// occurrence of a name winning.
func stageDurations[N any](roots []N, stage func(N) (string, float64, []N)) map[string]float64 {
	if len(roots) == 0 {
		return nil
	}
	out := make(map[string]float64, len(roots))
	var walk func([]N)
	walk = func(nodes []N) {
		for _, n := range nodes {
			name, ms, children := stage(n)
			if _, seen := out[name]; !seen {
				out[name] = ms
			}
			walk(children)
		}
	}
	walk(roots)
	return out
}

// StageDurations flattens the span's descendants into stage-name →
// wall-ms — a wide event's Stages — without materializing a Snapshot
// tree. The receiver (the root, whose duration is the event's own) is
// skipped and unfinished spans are measured to now. Safe on nil.
func (s *Span) StageDurations() map[string]float64 {
	if s == nil {
		return nil
	}
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	return stageDurations(s.children, (*Span).stage)
}

// StageDurations is the same flattening of an exported tree. Safe on nil.
func (d *SpanData) StageDurations() map[string]float64 {
	if d == nil {
		return nil
	}
	return stageDurations(d.Children, (*SpanData).stage)
}
