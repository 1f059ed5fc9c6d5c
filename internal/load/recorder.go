package load

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"emgo/internal/obs"
)

// latencyBuckets are the upper bounds (milliseconds) of the client-side
// latency histogram — finer than the server's buckets at the low end
// and stretching to 60s so a wedged request is still charged, not lost.
var latencyBuckets = []float64{
	0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 30000, 60000,
}

// Recorder aggregates outcomes concurrently: per-class and per-kind
// atomic counters plus an internal/obs histogram of
// coordinated-omission-corrected latencies, whose percentile math and
// snapshots are the ones the server's /v1/status latency uses.
type Recorder struct {
	hist *obs.Histogram

	mu      sync.Mutex
	classes map[string]int64
	kinds   map[Kind]int64

	completed        atomic.Int64
	degraded         atomic.Int64
	shedNoRetryAfter atomic.Int64

	start time.Time
}

// NewRecorder builds an empty recorder; the clock starts at Start.
func NewRecorder() *Recorder {
	return &Recorder{
		hist:    obs.NewHistogram(latencyBuckets),
		classes: map[string]int64{},
		kinds:   map[Kind]int64{},
	}
}

// Start marks the schedule's t=0.
func (r *Recorder) Start() { r.start = time.Now() }

// Observe folds one finished request in. latency is charged from the
// request's *scheduled* send time, so generator backlog and slow
// responses both count.
func (r *Recorder) Observe(out Outcome, latency time.Duration) {
	r.hist.Observe(float64(latency) / float64(time.Millisecond))
	r.mu.Lock()
	r.classes[out.Class]++
	r.kinds[out.Kind]++
	r.mu.Unlock()
	r.completed.Add(1)
	if out.Degraded {
		r.degraded.Add(1)
	}
	if out.ShedNoRetryAfter {
		r.shedNoRetryAfter.Add(1)
	}
}

// Snapshot is the recorder's state at one instant; the json keys are
// the ones a phase record (Result) writes for its accounting.
type Snapshot struct {
	Elapsed   time.Duration    `json:"-"`
	Completed int64            `json:"completed"`
	Classes   map[string]int64 `json:"classes"`
	Kinds     map[Kind]int64   `json:"kinds"`
	Degraded  int64            `json:"degraded"`
	// ShedNoRetryAfter counts contract violations: a 429/503 shed
	// answer with no Retry-After hint.
	ShedNoRetryAfter int64                 `json:"shed_missing_retry_after"`
	Hist             obs.HistogramSnapshot `json:"histogram"`
}

// Snapshot captures the current totals.
func (r *Recorder) Snapshot() Snapshot {
	snap := Snapshot{
		Elapsed:          time.Since(r.start),
		Completed:        r.completed.Load(),
		Degraded:         r.degraded.Load(),
		ShedNoRetryAfter: r.shedNoRetryAfter.Load(),
		Classes:          map[string]int64{},
		Kinds:            map[Kind]int64{},
	}
	r.mu.Lock()
	for c, n := range r.classes {
		snap.Classes[c] = n
	}
	for k, n := range r.kinds {
		snap.Kinds[k] = n
	}
	r.mu.Unlock()
	snap.Hist = r.hist.Snapshot()
	return snap
}

// diffHist subtracts an earlier histogram snapshot from a later one,
// yielding the interval histogram live reporting quotes percentiles
// from.
func diffHist(later, earlier obs.HistogramSnapshot) obs.HistogramSnapshot {
	if len(later.Counts) == 0 {
		return later
	}
	out := obs.HistogramSnapshot{
		Bounds: later.Bounds,
		Counts: make([]int64, len(later.Counts)),
		Count:  later.Count - earlier.Count,
		Sum:    later.Sum - earlier.Sum,
		Max:    later.Max, // max does not subtract; cumulative max is honest enough live
	}
	for i := range later.Counts {
		out.Counts[i] = later.Counts[i]
		if i < len(earlier.Counts) {
			out.Counts[i] -= earlier.Counts[i]
		}
	}
	return out
}

// reporter prints one live line per interval: interval eps and
// percentiles plus cumulative class counts — the rulio-sim style
// heartbeat that makes a soak watchable.
type reporter struct {
	rec  *Recorder
	out  io.Writer
	prev Snapshot
}

func (p *reporter) line() {
	cur := p.rec.Snapshot()
	interval := cur.Elapsed - p.prev.Elapsed
	if interval <= 0 {
		return
	}
	ih := diffHist(cur.Hist, p.prev.Hist)
	eps := float64(cur.Completed-p.prev.Completed) / interval.Seconds()
	fmt.Fprintf(p.out, "emload: t=%-5s eps=%7.1f p50=%s p99=%s p99.9=%s %s\n",
		cur.Elapsed.Truncate(time.Second),
		eps,
		fmtMS(ih.Quantile(0.50)), fmtMS(ih.Quantile(0.99)), fmtMS(ih.Quantile(0.999)),
		classLine(cur.Classes),
	)
	p.prev = cur
}

// classLine renders cumulative class counts in a fixed order.
func classLine(classes map[string]int64) string {
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	s := ""
	for _, c := range names {
		if classes[c] == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", c, classes[c])
	}
	if s == "" {
		return "idle"
	}
	return s
}

// fmtMS renders a millisecond quantity compactly.
func fmtMS(ms float64) string {
	switch {
	case ms <= 0:
		return "-"
	case ms < 10:
		return fmt.Sprintf("%.1fms", ms)
	case ms < 10000:
		return fmt.Sprintf("%.0fms", ms)
	default:
		return fmt.Sprintf("%.1fs", ms/1000)
	}
}
