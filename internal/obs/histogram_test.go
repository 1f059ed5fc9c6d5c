package obs

import (
	"sync"
	"testing"
)

func TestHistogramCountsAndSum(t *testing.T) {
	bounds := []float64{1, 10, 100}
	h := NewHistogram(bounds)
	bounds[0] = 99 // the histogram keeps its own copy
	for _, v := range []float64{0.5, 5, 5, 50, 5000} {
		h.Observe(v)
	}

	hs := h.Snapshot()
	if hs.Count != 5 {
		t.Fatalf("hist count = %d, want 5", hs.Count)
	}
	if hs.Sum != 5060.5 || hs.Max != 5000 {
		t.Fatalf("hist sum = %v, max = %v, want 5060.5, 5000", hs.Sum, hs.Max)
	}
	if hs.Bounds[0] != 1 {
		t.Fatalf("bounds = %v: the caller's slice leaked in", hs.Bounds)
	}
	want := []int64{1, 2, 1, 1}
	if len(hs.Counts) != len(want) {
		t.Fatalf("bucket counts %v, want %v", hs.Counts, want)
	}
	for i := range want {
		if hs.Counts[i] != want[i] {
			t.Fatalf("bucket counts %v, want %v", hs.Counts, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if hs := h.Snapshot(); hs.Count != 8000 || hs.Sum != 8000 || hs.Counts[0] != 8000 {
		t.Fatalf("after 8000 concurrent samples: %+v", hs)
	}
}

func TestHistogramSnapshotQuantiles(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(50) // second bucket
	}
	snap := h.Snapshot()
	if snap.P50 <= 0 || snap.P50 > 10 {
		t.Fatalf("p50 = %g, want in (0, 10]", snap.P50)
	}
	if snap.P90 > 10 {
		t.Fatalf("p90 = %g, want inside the first bucket (rank 90 of 100)", snap.P90)
	}
	if snap.P99 <= 10 || snap.P99 > 100 {
		t.Fatalf("p99 = %g, want in the second bucket", snap.P99)
	}

	// Quantiles landing in the overflow bucket report the last bound.
	h2 := NewHistogram([]float64{10})
	h2.Observe(9999)
	if snap2 := h2.Snapshot(); snap2.P50 != 10 {
		t.Fatalf("overflow p50 = %g, want last bound 10", snap2.P50)
	}

	// Empty histogram: no quantiles exported.
	snap3 := NewHistogram([]float64{10}).Snapshot()
	if snap3.P50 != 0 || snap3.P90 != 0 || snap3.P99 != 0 {
		t.Fatalf("empty histogram exported quantiles: %+v", snap3)
	}
}
