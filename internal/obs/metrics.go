// Package obs is the pipeline-wide observability layer: a metrics
// registry (atomic counters, fixed-bucket histograms), span-based
// tracing with parent/child structure, machine-readable run reports, and
// an operational debug server (expvar + net/http/pprof). It depends only
// on the standard library.
//
// The design goal is hot-loop safety. Metrics handles are nil-safe: when
// the global registry is disabled (the default), obs.C/H return nil and
// every method on the nil handle is a single nil-check no-op; when
// enabled, a counter increment is one atomic add. Instrumented loops
// fetch their handles once per stage, never per item:
//
//	vec := obs.C("feature.vectors_built") // nil when disabled
//	for i := range pairs {
//	    ...
//	    vec.Inc() // nil-check only, or one atomic add
//	}
//
// Spans flow through contexts and are active only when a caller (a CLI
// flag, umetrics.RunDeployed, a test) opened a trace with NewTrace; with
// no trace in the context, StartSpan returns a nil *Span whose methods
// are all no-ops.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Counter is a monotonically increasing metric. The nil counter is a
// valid no-op, which is how disabled instrumentation stays off the
// profile.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Safe on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram. Bounds are upper bounds of the
// first len(bounds) buckets; one extra overflow bucket catches the rest.
// Observe is lock-free: a binary search over the (immutable) bounds and
// one atomic add.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomicFloat
	max    atomicFloat
}

// atomicFloat is an atomic float64 built on CAS over the bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := floatBits(floatFrom(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return floatFrom(f.bits.Load()) }

// storeMax raises the value to v if v is larger (CAS loop).
func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if floatFrom(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, floatBits(v)) {
			return
		}
	}
}

// Observe records one sample. Safe on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.max.storeMax(v)
}

// HistogramSnapshot is the JSON form of a histogram at one instant.
type HistogramSnapshot struct {
	// Bounds are the upper bounds of the first len(Bounds) buckets; the
	// final entry of Counts is the overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	// P50/P90/P99/P999 are bucket-interpolated quantile estimates, filled
	// by Snapshot so run reports carry latency percentiles that diffing
	// tools (emmonitor diff) can regress against. Zero when no samples
	// were observed.
	P50  float64 `json:"p50,omitempty"`
	P90  float64 `json:"p90,omitempty"`
	P99  float64 `json:"p99,omitempty"`
	P999 float64 `json:"p999,omitempty"`
	// Max is the exact largest observed sample — the one value bucket
	// interpolation cannot resolve, and exactly the outlier tail-latency
	// work cares about.
	Max float64 `json:"max,omitempty"`
}

// Quantile estimates the q-th quantile (q in [0,1]) from the bucket
// counts by linear interpolation inside the holding bucket. Histograms
// in this repository observe non-negative measures, so the first
// bucket interpolates from zero; ranks landing in the overflow bucket
// return the last bound (the estimate cannot exceed what the buckets
// resolve).
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		frac := (rank - prev) / float64(c)
		return lo + frac*(hi-lo)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// fillQuantiles computes the exported percentile estimates.
func (h *HistogramSnapshot) fillQuantiles() {
	if h.Count == 0 {
		return
	}
	h.P50 = h.Quantile(0.50)
	h.P90 = h.Quantile(0.90)
	h.P99 = h.Quantile(0.99)
	h.P999 = h.Quantile(0.999)
	// A quantile estimate clamped to the last bound can never exceed the
	// exact max; report the max itself when the estimate hits the clamp.
	if h.Max > 0 && h.P999 > h.Max {
		h.P999 = h.Max
	}
}

// MetricsSnapshot is the JSON form of a registry at one instant.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Registry holds named metrics. Lookups take a lock, so instrumented
// code fetches handles once per stage and holds them across the loop.
// The nil registry is valid: every lookup returns the nil handle.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (bounds must be sorted ascending;
// later calls reuse the first bounds). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures every metric's current value. Safe on nil (returns
// an empty snapshot).
func (r *Registry) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			snap.Counters[name] = c.Value()
		}
	}
	if len(r.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Count:  h.count.Load(),
				Sum:    h.sum.load(),
				Max:    h.max.load(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			hs.fillQuantiles()
			snap.Histograms[name] = hs
		}
	}
	return snap
}

// global is the process-wide registry; nil means observability is
// disabled and every handle lookup returns the nil no-op handle.
var global atomic.Pointer[Registry]

// Enable installs a fresh global registry when none is active and
// returns the active one. Idempotent.
func Enable() *Registry {
	for {
		if r := global.Load(); r != nil {
			return r
		}
		r := NewRegistry()
		if global.CompareAndSwap(nil, r) {
			return r
		}
	}
}

// Disable removes the global registry; subsequent handle lookups return
// nil no-op handles. Tests that Enable should defer Disable.
func Disable() { global.Store(nil) }

// Default returns the global registry, or nil when disabled.
func Default() *Registry { return global.Load() }

// Enabled reports whether a global registry is active.
func Enabled() bool { return global.Load() != nil }

// C returns the named counter from the global registry (nil when
// disabled).
func C(name string) *Counter { return global.Load().Counter(name) }

// H returns the named histogram from the global registry (nil when
// disabled).
func H(name string, bounds []float64) *Histogram { return global.Load().Histogram(name, bounds) }
