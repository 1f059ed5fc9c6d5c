package drift

import (
	"context"
	"testing"
)

var benchRow = []float64{0.1, 0.2, 0.3, 0.4, 0.5}

// BenchmarkCollectorDisabled guards the ISSUE's hot-path contract: with
// no collector armed, the per-row cost in feature.VectorizeCtx and
// ml.PredictAllCtx is one method call on a nil *Collector — a single
// nil check, within 2x of the disabled obs.Counter bound (~5ns).
func BenchmarkCollectorDisabled(b *testing.B) {
	var c *Collector // what FromContext returns when no run armed one
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ObserveVector(benchRow)
	}
}

// BenchmarkCollectorEnabled is the armed cost per vector: one mutex
// acquisition and a reservoir offer per feature.
func BenchmarkCollectorEnabled(b *testing.B) {
	c := NewCollector(DefaultSampleCap, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ObserveVector(benchRow)
	}
}

// BenchmarkFromContextMiss is the once-per-stage lookup cost when no
// collector is armed.
func BenchmarkFromContextMiss(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if FromContext(ctx) != nil {
			b.Fatal("unexpected collector")
		}
	}
}
