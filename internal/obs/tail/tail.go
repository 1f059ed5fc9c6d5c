// Package tail is always-on tail capture for the serving tier: a
// fixed-size, lock-cheap buffer that retains the full wide event and
// span tree of the requests an operator actually asks about after the
// fact — the N slowest, every errored, and every degraded or shed
// request — without pre-enabling tracing. The buffer is windowed: it
// holds the current and the previous rotation window, so "show me the
// outlier from a few minutes ago" still works right after a rotation,
// while a slow request from yesterday cannot squat in the slow set
// forever.
//
// The cost model matters because Add sits on every request: the common
// case (an "ok" request that is not a tail candidate) is rejected with
// one atomic load and no lock, so steady-state traffic pays nanoseconds
// and only tail events take the mutex.
package tail

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"emgo/internal/obs"
)

// Defaults used when Config fields are zero. DefaultWindow is the rotation
// period, which is not a setting: the buffer exposes the current and the
// previous window.
const (
	DefaultSlowN  = 16
	DefaultErrN   = 64
	DefaultWindow = 5 * time.Minute
)

// Config sizes a Buffer.
type Config struct {
	// SlowN is how many slowest requests to retain per window.
	SlowN int
	// errN caps the errored and the degraded/shed sets per window
	// (DefaultErrN; only tests shrink it); when a window overflows, the
	// oldest entries are evicted and counted in the snapshot's Dropped
	// fields.
	errN int
}

// Entry is one captured request: its wide event plus the span tree that
// explains where the time went.
type Entry struct {
	Event *obs.WideEvent `json:"event"`
	Trace *obs.SpanData  `json:"trace,omitempty"`
}

// Snapshot is the queryable state of a Buffer: both windows merged,
// slowest-first, plus accounting for what the caps evicted.
type Snapshot struct {
	// Now and WindowStart bound the capture: entries are no older than
	// the start of the previous window.
	Now         time.Time `json:"now"`
	WindowStart time.Time `json:"window_start"`
	WindowMS    float64   `json:"window_ms"`
	// Slowest are the retained slowest requests, duration-descending.
	Slowest []*Entry `json:"slowest,omitempty"`
	// Errored are requests with outcome error/timeout, newest last.
	Errored []*Entry `json:"errored,omitempty"`
	// Degraded are degraded, shed, and draining requests, newest last.
	Degraded []*Entry `json:"degraded,omitempty"`
	// Seen counts every request offered to the buffer since creation.
	Seen int64 `json:"seen"`
	// DroppedErrored / DroppedDegraded count cap evictions in the
	// retained windows (a high number means DefaultErrN is too small for the
	// failure rate).
	DroppedErrored  int64 `json:"dropped_errored,omitempty"`
	DroppedDegraded int64 `json:"dropped_degraded,omitempty"`
}

// window is one rotation period's capture.
type window struct {
	start time.Time
	// slow is a min-heap on Event.DurationMS: the root is the cheapest
	// retained entry, evicted first when a slower request arrives.
	slow []*Entry
	// errs and degr are bounded FIFO slices (evict front on overflow).
	errs, degr              []*Entry
	droppedErr, droppedDegr int64
}

// Buffer is the capture buffer. The nil *Buffer is valid and all
// methods no-op, matching the obs nil-handle posture.
type Buffer struct {
	cfg Config
	now func() time.Time // test seam

	// slowFloor is the current window's heap root duration once the heap
	// is full (math.Inf(-1) bits otherwise): the lock-free fast-path
	// threshold for "cannot possibly be a tail candidate".
	slowFloor atomic.Uint64
	seen      atomic.Int64

	mu        sync.Mutex
	cur, prev *window
}

// New builds a Buffer; zero Config fields take the package defaults.
func New(cfg Config) *Buffer {
	if cfg.SlowN <= 0 {
		cfg.SlowN = DefaultSlowN
	}
	if cfg.errN <= 0 {
		cfg.errN = DefaultErrN
	}
	b := &Buffer{cfg: cfg, now: time.Now}
	b.slowFloor.Store(math.Float64bits(math.Inf(-1)))
	return b
}

// classify reports whether the outcome belongs in the errored or
// degraded sets (and therefore always takes the slow path).
func classify(outcome string) (errored, degraded bool) {
	switch outcome {
	case obs.OutcomeError, obs.OutcomeTimeout:
		return true, false
	case obs.OutcomeDegraded, obs.OutcomeShed, obs.OutcomeDraining:
		return false, true
	}
	return false, false
}

// Add offers one finished request to the buffer. The span is the
// request's live root: its tree is materialized with Snapshot — and the
// event's Stages read from it — only when the buffer actually retains
// the entry, so the steady-state request pays no tree copy. Safe on nil
// and for concurrent use; the common non-tail case returns without
// locking.
func (b *Buffer) Add(ev *obs.WideEvent, span *obs.Span) {
	if b == nil || ev == nil {
		return
	}
	b.seen.Add(1)
	errored, degraded := classify(ev.Outcome)
	if !errored && !degraded &&
		ev.DurationMS <= math.Float64frombits(b.slowFloor.Load()) {
		// Fast path: an ok request no slower than the cheapest retained
		// slow entry can change nothing. The floor is a stale-tolerant
		// hint — it only ever over-admits (e.g. just after rotation),
		// never wrongly rejects, because rotation resets it to -Inf.
		return
	}
	entry := &Entry{Event: ev}

	b.mu.Lock()
	w := b.rotateLocked()
	if errored {
		w.errs = appendBounded(w.errs, entry, b.cfg.errN, &w.droppedErr)
	}
	if degraded {
		w.degr = appendBounded(w.degr, entry, b.cfg.errN, &w.droppedDegr)
	}
	if b.pushSlowLocked(w, entry) || errored || degraded {
		// Under b.mu so a concurrent Snapshot never observes the entry
		// with its trace half-assigned. The event's stages are read off
		// the same copy: only a kept event carries them.
		entry.Trace = span.Snapshot()
		if ev.Stages == nil {
			ev.Stages = entry.Trace.StageDurations()
		}
	}
	b.mu.Unlock()
}

// appendBounded appends to a FIFO slice capped at n, evicting the
// oldest entry and counting the drop on overflow.
func appendBounded(s []*Entry, e *Entry, n int, dropped *int64) []*Entry {
	s = append(s, e)
	if len(s) > n {
		copy(s, s[1:])
		s = s[:len(s)-1]
		*dropped++
	}
	return s
}

// pushSlowLocked admits entry to the window's slow min-heap, evicting
// the current cheapest when full, and refreshes the fast-path floor.
// It reports whether the entry was admitted.
func (b *Buffer) pushSlowLocked(w *window, e *Entry) bool {
	admitted := false
	if len(w.slow) < b.cfg.SlowN {
		w.slow = append(w.slow, e)
		siftUp(w.slow, len(w.slow)-1)
		admitted = true
	} else if e.Event.DurationMS > w.slow[0].Event.DurationMS {
		w.slow[0] = e
		siftDown(w.slow, 0)
		admitted = true
	}
	if len(w.slow) == b.cfg.SlowN {
		b.slowFloor.Store(math.Float64bits(w.slow[0].Event.DurationMS))
	}
	return admitted
}

func siftUp(h []*Entry, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].Event.DurationMS <= h[i].Event.DurationMS {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []*Entry, i int) {
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(h) && h[l].Event.DurationMS < h[min].Event.DurationMS {
			min = l
		}
		if r < len(h) && h[r].Event.DurationMS < h[min].Event.DurationMS {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// rotateLocked lazily advances the windows to cover now and returns the
// current one. Called with b.mu held.
func (b *Buffer) rotateLocked() *window {
	now := b.now()
	if b.cur == nil {
		b.cur = &window{start: now}
		return b.cur
	}
	age := now.Sub(b.cur.start)
	if age < DefaultWindow {
		return b.cur
	}
	if age < 2*DefaultWindow {
		b.prev = b.cur
	} else {
		// The buffer slept through more than a full window: nothing in
		// either window is recent enough to keep.
		b.prev = nil
	}
	b.cur = &window{start: now}
	b.slowFloor.Store(math.Float64bits(math.Inf(-1)))
	return b.cur
}

// Snapshot merges both retained windows into a queryable view. Safe on
// nil (returns an empty snapshot).
func (b *Buffer) Snapshot() Snapshot {
	if b == nil {
		return Snapshot{}
	}
	b.mu.Lock()
	w := b.rotateLocked()
	windows := []*window{w}
	if b.prev != nil {
		windows = append(windows, b.prev)
	}
	snap := Snapshot{
		Now:         b.now(),
		WindowStart: w.start,
		WindowMS:    float64(DefaultWindow) / float64(time.Millisecond),
		Seen:        b.seen.Load(),
	}
	if b.prev != nil {
		snap.WindowStart = b.prev.start
	}
	for _, win := range windows {
		snap.Slowest = append(snap.Slowest, win.slow...)
		snap.DroppedErrored += win.droppedErr
		snap.DroppedDegraded += win.droppedDegr
	}
	// Oldest window first so the newest-last ordering holds merged.
	for i := len(windows) - 1; i >= 0; i-- {
		snap.Errored = append(snap.Errored, windows[i].errs...)
		snap.Degraded = append(snap.Degraded, windows[i].degr...)
	}
	b.mu.Unlock()

	sort.SliceStable(snap.Slowest, func(i, j int) bool {
		return snap.Slowest[i].Event.DurationMS > snap.Slowest[j].Event.DurationMS
	})
	if len(snap.Slowest) > b.cfg.SlowN {
		snap.Slowest = snap.Slowest[:b.cfg.SlowN]
	}
	return snap
}

// Handler serves the snapshot as JSON — the /debug/tail endpoint.
func (b *Buffer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(b.Snapshot())
	})
}
