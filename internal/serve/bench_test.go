package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// benchRecords builds n wire-shape records cycling the fixture trio, so
// the mix exercises the sure-rule, learned-matcher, and vetoed paths in
// the same proportions for every benchmark.
func benchRecords(n int) []map[string]any {
	recs := make([]map[string]any, n)
	for i := range recs {
		id := fmt.Sprintf("q%d", i)
		switch i % 3 {
		case 0:
			recs[i] = l0Record(id)
		case 1:
			recs[i] = l1Record(id)
		default:
			recs[i] = l2Record(id)
		}
	}
	return recs
}

// BenchmarkMatchSingle is the per-record cost of the single-record
// endpoint: every record pays its own decode, admission slot, and
// blocking-index probe. Compare ns/record against BenchmarkMatchBatch32
// to see what the batch path amortizes.
func BenchmarkMatchSingle(b *testing.B) {
	s, _ := newTestServer(b, Config{})
	h := s.Handler()
	bodies := make([]string, 3)
	for i, rec := range benchRecords(3) {
		buf, err := json.Marshal(map[string]any{"record": rec})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = string(buf)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/match", strings.NewReader(bodies[i%3]))
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != 200 {
			b.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
}

// BenchmarkMatchBatch32 sends the same record mix 32 at a time: one
// decode, one admission slot, and one index-probe loop per request.
func BenchmarkMatchBatch32(b *testing.B) {
	s, _ := newTestServer(b, Config{})
	h := s.Handler()
	buf, err := json.Marshal(map[string]any{"records": benchRecords(32)})
	if err != nil {
		b.Fatal(err)
	}
	body := string(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/match/batch", strings.NewReader(body))
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != 200 {
			b.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*32), "ns/record")
}

// observedConfig turns on the request-scoped observability layer:
// every wide event rendered (to a discarded sink, so the benchmark
// measures the logging work, not the disk) and span trees built. The
// *Observed benchmarks against their plain counterparts are the layer's
// <5% overhead guard (BENCH_pr7.json). The /v1/status numbers (shed
// counts, the latency histogram) are counted in both.
func observedConfig() Config {
	return Config{AccessLog: io.Discard, AccessSampleN: 1}
}

// BenchmarkMatchSingleObserved is BenchmarkMatchSingle with wide-event
// logging and span capture on.
func BenchmarkMatchSingleObserved(b *testing.B) {
	s, _ := newTestServer(b, observedConfig())
	h := s.Handler()
	bodies := make([]string, 3)
	for i, rec := range benchRecords(3) {
		buf, err := json.Marshal(map[string]any{"record": rec})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = string(buf)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/match", strings.NewReader(bodies[i%3]))
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != 200 {
			b.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
}

// BenchmarkMatchBatch32Observed is BenchmarkMatchBatch32 under the same
// fully-armed observability stack.
func BenchmarkMatchBatch32Observed(b *testing.B) {
	s, _ := newTestServer(b, observedConfig())
	h := s.Handler()
	buf, err := json.Marshal(map[string]any{"records": benchRecords(32)})
	if err != nil {
		b.Fatal(err)
	}
	body := string(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/match/batch", strings.NewReader(body))
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != 200 {
			b.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*32), "ns/record")
}
