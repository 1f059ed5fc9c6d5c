// Package obs is the pipeline-wide observability layer: span-based
// tracing with parent/child structure (a unit of work's count is its
// span's items), machine-readable run reports, wide events, a
// fixed-bucket histogram for the latencies a client or server
// aggregates, and an operational debug server (expvar + net/http/pprof).
// It depends only on the standard library.
//
// Spans flow through contexts and are active only when a caller (a CLI
// flag, umetrics.RunDeployed, a test) opened a trace with NewTrace; with
// no trace in the context, StartSpan returns a nil *Span whose methods
// are all no-ops.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

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

// NewHistogram returns an empty histogram over bounds, which must be
// sorted ascending (the histogram keeps a copy).
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.max.storeMax(v)
}

// Snapshot captures the histogram's current counts, with its quantile
// estimates filled.
func (h *Histogram) Snapshot() HistogramSnapshot {
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
	return hs
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
	// by Snapshot so a reader of /v1/status or a load phase's record
	// gets percentiles without redoing the bucket math. Zero when no
	// samples were observed.
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
