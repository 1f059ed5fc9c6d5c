package obs

import (
	"context"
	"slices"
	"strings"
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
	// ctx is the context StartSpan returns: the caller's, with this span
	// active. It lives in the span, so starting a span allocates nothing
	// beyond the trace's slab.
	ctx spanCtx

	name    string
	start   time.Time
	end     time.Time
	items   int64
	outcome string
	attrs   *attr // Annotate's pairs, linked, latest first
	// first and last are the span's children, linked through next in
	// the order they started.
	first, last, next *Span
}

// attr is one Annotate pair.
type attr struct {
	key, value string
	next       *attr
}

// trace owns what all spans of one tree share: the mutex every mutation
// takes (stage fan-outs touch spans from worker goroutines) and the
// slabs its spans and their pairs come from. The first slabs are the
// trace's own arrays, sized for a request's tree.
type trace struct {
	mu         sync.Mutex
	spans      []Span
	attrs      []attr
	firstSpans [traceSpans]Span
	firstAttrs [traceAttrs]attr
}

// A trace holds this many spans and pairs before its slabs grow: one
// online request opens ten or eleven spans and annotates three; 13
// spans fill the allocation size class 12 would round up to.
const traceSpans, traceAttrs = 13, 4

// take hands out the next element of a slab. A full slab is replaced by
// one twice its size; what was handed out stays where it is.
func take[T any](slab *[]T) *T {
	if len(*slab) == cap(*slab) {
		*slab = make([]T, 0, 2*cap(*slab))
	}
	*slab = (*slab)[:len(*slab)+1]
	return &(*slab)[len(*slab)-1]
}

// newSpan hands out the next span of the trace; the caller holds mu
// unless the trace is not yet shared.
func (t *trace) newSpan(ctx context.Context, name string, start time.Time) *Span {
	s := take(&t.spans)
	s.trace, s.name, s.start = t, name, start
	s.ctx = spanCtx{Context: ctx, span: s}
	return s
}

// spanCtx is a context carrying its span: Value answers the span key
// itself and asks the parent context for every other.
type spanCtx struct {
	context.Context
	span *Span
}

type spanKey struct{}

func (c *spanCtx) Value(key any) any {
	if _, ok := key.(spanKey); ok {
		return c.span
	}
	return c.Context.Value(key)
}

// NewTrace opens a trace rooted at a span with the given name and
// returns a context carrying it. The caller ends the root with End and
// exports it with Snapshot.
func NewTrace(ctx context.Context, name string) (context.Context, *Span) {
	return new(Trace).Open(ctx, name)
}

// Trace is a span tree's storage, for a caller that opens one tree after
// another in it — a server's kept request record — so that a tree's
// spans cost no allocation of their own. Open empties it: no span of the
// tree before may be read after.
type Trace struct{ t trace }

// Open empties the trace and roots a new tree in it, as NewTrace does.
func (tr *Trace) Open(ctx context.Context, name string) (context.Context, *Span) {
	t := &tr.t
	clear(t.firstSpans[:])
	clear(t.firstAttrs[:])
	t.spans, t.attrs = t.firstSpans[:0], t.firstAttrs[:0]
	root := t.newSpan(ctx, name, time.Now())
	return &root.ctx, root
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
	start := time.Now()
	t := parent.trace
	t.mu.Lock()
	child := t.newSpan(ctx, name, start)
	if parent.last == nil {
		parent.first = child
	} else {
		parent.last.next = child
	}
	parent.last = child
	t.mu.Unlock()
	return &child.ctx, child
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
	defer s.trace.mu.Unlock()
	for a := s.attrs; a != nil; a = a.next {
		if a.key == key {
			a.value = value
			return
		}
	}
	a := take(&s.trace.attrs)
	a.key, a.value, a.next = key, value, s.attrs
	s.attrs = a
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
	_, ms := s.stage()
	d := &SpanData{
		Name:       s.name,
		Start:      s.start,
		DurationMS: ms,
		Items:      s.items,
		Outcome:    s.outcome,
	}
	for a := s.attrs; a != nil; a = a.next {
		if d.Attrs == nil {
			d.Attrs = make(map[string]string)
		}
		d.Attrs[a.key] = a.value
	}
	for c := s.first; c != nil; c = c.next {
		d.Children = append(d.Children, c.snapshotLocked())
	}
	return d
}

// stage reads a live span as the flattening walk sees a node; the caller
// holds the trace lock. An unfinished span is measured to now.
func (s *Span) stage() (name string, ms float64) {
	end := s.end
	if end.IsZero() {
		end = time.Now()
	}
	return s.name, float64(end.Sub(s.start)) / float64(time.Millisecond)
}

// stageTime is one node of a flattened tree: its name and wall ms.
type stageTime struct {
	name string
	ms   float64
}

// appendStages appends every node under s (s excluded) in depth-first
// order; the caller holds the trace lock.
func (s *Span) appendStages(dst []stageTime) []stageTime {
	for c := s.first; c != nil; c = c.next {
		name, ms := c.stage()
		dst = c.appendStages(append(dst, stageTime{name, ms}))
	}
	return dst
}

// sortedStages is the flattening walk — every node under s (s excluded),
// the first occurrence of a name in depth-first order winning — into dst,
// emptied, sorted by name: a wide event's stages, as the access log
// writes them with no map between. Safe on nil.
func (s *Span) sortedStages(dst []stageTime) []stageTime {
	if s == nil {
		return dst[:0]
	}
	s.trace.mu.Lock()
	dst = s.appendStages(dst[:0])
	s.trace.mu.Unlock()
	// A stable sort keeps each name's nodes in walk order; Compact keeps
	// the first of each run.
	slices.SortStableFunc(dst, func(a, b stageTime) int { return strings.Compare(a.name, b.name) })
	return slices.CompactFunc(dst, func(a, b stageTime) bool { return a.name == b.name })
}

// StageDurations is the flattening as stage-name → wall-ms, without
// materializing a Snapshot tree; nil when s has no children. Unfinished
// spans are measured to now. Safe on nil.
func (s *Span) StageDurations() map[string]float64 {
	var out map[string]float64
	for _, st := range s.sortedStages(nil) {
		if out == nil {
			out = make(map[string]float64)
		}
		out[st.name] = st.ms
	}
	return out
}

// StageDurations is the same flattening of an exported tree. Safe on nil.
func (d *SpanData) StageDurations() map[string]float64 {
	var out map[string]float64
	var walk func(*SpanData)
	walk = func(n *SpanData) {
		for _, c := range n.Children {
			if out == nil {
				out = make(map[string]float64)
			}
			if _, seen := out[c.Name]; !seen {
				out[c.Name] = c.DurationMS
			}
			walk(c)
		}
	}
	if d != nil {
		walk(d)
	}
	return out
}
