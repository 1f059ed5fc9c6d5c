package obs

import (
	"sync"
	"testing"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Add(5)
	c.Inc()
	h.Observe(1.5)
	if c.Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestRegistryCountersHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pairs")
	c.Add(3)
	r.Counter("pairs").Inc() // same counter by name
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	h := r.Histogram("ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 5000} {
		h.Observe(v)
	}

	snap := r.Snapshot()
	if snap.Counters["pairs"] != 4 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	hs := snap.Histograms["ms"]
	if hs.Count != 5 {
		t.Fatalf("hist count = %d, want 5", hs.Count)
	}
	if hs.Sum != 5060.5 {
		t.Fatalf("hist sum = %v, want 5060.5", hs.Sum)
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

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestGlobalEnableDisable(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("expected disabled start")
	}
	if C("x") != nil || H("x", nil) != nil {
		t.Fatal("disabled global must return nil handles")
	}
	r := Enable()
	defer Disable()
	if !Enabled() || Default() != r {
		t.Fatal("Enable must install the default registry")
	}
	if Enable() != r {
		t.Fatal("Enable must be idempotent")
	}
	C("x").Add(2)
	if r.Counter("x").Value() != 2 {
		t.Fatal("global counter must write into the default registry")
	}
}

func TestHistogramSnapshotQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(50) // second bucket
	}
	snap := r.Snapshot().Histograms["q"]
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
	h2 := r.Histogram("q2", []float64{10})
	h2.Observe(9999)
	snap2 := r.Snapshot().Histograms["q2"]
	if snap2.P50 != 10 {
		t.Fatalf("overflow p50 = %g, want last bound 10", snap2.P50)
	}

	// Empty histogram: no quantiles exported.
	r.Histogram("q3", []float64{10})
	snap3 := r.Snapshot().Histograms["q3"]
	if snap3.P50 != 0 || snap3.P90 != 0 || snap3.P99 != 0 {
		t.Fatalf("empty histogram exported quantiles: %+v", snap3)
	}
}
