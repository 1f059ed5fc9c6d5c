package main

import (
	"math"
	"testing"
)

func TestMedianQuantileSpread(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.25: 20, 0.5: 30, 0.9: 46, 1: 50} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 10 || xs[4] != 50 {
		t.Error("quantile reordered its input")
	}
	if got := spread(xs); math.Abs(got-20.0/30) > 1e-9 {
		t.Errorf("spread = %v", got)
	}
	if spread([]float64{5}) != 0 || spread([]float64{0, 0}) != 0 {
		t.Error("spread of a single value or a zero median must be 0")
	}
}

// Slow segments (a neighbour's burst, a slow phase of the box) must not
// move the timings.
func TestTimingsIgnoreSlowSegments(t *testing.T) {
	quiet := segment{wallS: 1, cpuS: 0.5, records: 100, opMS: []float64{9, 10, 11}}
	slow := segment{wallS: 5, cpuS: 0.6, records: 100, opMS: []float64{40, 50, 60}}
	tm := segmentTimings([]segment{quiet, slow, quiet, slow, slow, quiet, quiet, {}})
	if len(tm.rate) != 7 {
		t.Fatalf("%d segments kept, want 7 (the empty one dropped)", len(tm.rate))
	}
	if rate, lat, cpu := median(tm.rate), median(tm.latMS), median(tm.cpuMS); rate != 100 || lat != 10 || cpu != 5 {
		t.Errorf("got rate %v, latency %v, cpu %v; want 100, 10, 5", rate, lat, cpu)
	}
	if sp := spread(segmentTimings([]segment{quiet, quiet, quiet, quiet}).wallS); sp != 0 {
		t.Errorf("equal segments spread %v, want 0", sp)
	}
}

func TestSplitEven(t *testing.T) {
	for _, c := range [][2]int{{1336, 16}, {42, 3}, {13, 16}, {5, 1}} {
		next := 0
		for _, r := range splitEven(c[0], c[1]) {
			if r[0] != next || r[1]-r[0] < c[0]/c[1] || r[1]-r[0] > c[0]/c[1]+1 {
				t.Errorf("splitEven%v: range %v after %d", c, r, next)
			}
			next = r[1]
		}
		if next != c[0] {
			t.Errorf("splitEven%v covers %d items", c, next)
		}
	}
}

func TestSplitBatchesSendsEveryRecordOnce(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 1336} {
		seen := make([]int, n)
		ranges := splitBatches(n, 32)
		for i, r := range ranges {
			if size := r[1] - r[0]; size > 32 || size < 1 || (size < 32 && i != len(ranges)-1) {
				t.Errorf("n=%d: batch %d has %d records", n, i, size)
			}
			for k := r[0]; k < r[1]; k++ {
				seen[k]++
			}
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: record %d sent %d times", n, k, c)
			}
		}
	}
	// The paper-size slice: 41 full batches and a 24-record remainder.
	r := splitBatches(1336, 32)
	if len(r) != 42 || r[41][1]-r[41][0] != 24 {
		t.Errorf("1336 records: %d batches, last %v", len(r), r[len(r)-1])
	}
}

func TestSelfSecondsCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartUS: 0, EndUS: 100e6},
		{ID: 1, Parent: 0, StartUS: 10e6, EndUS: 40e6},
		{ID: 2, Parent: 0, StartUS: 30e6, EndUS: 60e6}, // overlaps span 1 by 10 s
		{ID: 3, Parent: 2, StartUS: 35e6, EndUS: 45e6},
	}
	want := []float64{50, 30, 20, 10}
	for i, got := range selfSeconds(spans) {
		if math.Abs(got-want[i]) > 1e-9 {
			t.Errorf("span %d self = %v, want %v", i, got, want[i])
		}
	}
}
