package obs

import (
	"context"
	"testing"
)

var untracedCtx = context.Background()

// BenchmarkHistogramObserve is the histogram cost: a binary
// search over fixed bounds plus atomic adds.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram([]float64{1, 5, 10, 50, 100, 500, 1000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1200))
	}
}

// BenchmarkStartSpanUntraced is the disabled tracing cost: one context
// value lookup.
func BenchmarkStartSpanUntraced(b *testing.B) {
	ctx := untracedCtx
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "bench")
		sp.End()
	}
}
