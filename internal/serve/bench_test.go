package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"emgo/internal/obs/slo"
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
// measures the logging work, not the disk), span trees built, and tail
// capture armed. The *Observed benchmarks against their plain
// counterparts are the layer's <5% overhead guard (BENCH_pr7.json).
// Metrics-registry enablement is a separate, pre-existing cost priced
// by internal/obs's own benchmarks (BenchmarkCounterEnabled et al).
func observedConfig() Config {
	return Config{AccessLog: io.Discard, AccessSampleN: 1, TailN: 16, SLOs: slo.DefaultObjectives()}
}

// BenchmarkMatchSingleObserved is BenchmarkMatchSingle with wide-event
// logging, span capture, tail retention, and SLO tracking all on.
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

// BenchmarkStreamResults is the end-to-end throughput of the streaming
// result transport: one full NDJSON fetch of a fabricated ~1MB job over
// a real HTTP connection (httptest recorders cannot carry the per-chunk
// write deadlines) at the default chunking. SetBytes turns ns/op into
// MB/s so the committed trajectory tracks transport throughput, not
// just latency.
func BenchmarkStreamResults(b *testing.B) {
	s, ts := newTestServer(b, jobConfig(b.TempDir()))
	job := fabricateFatJob(b, s, 2000, 100, 500)

	fetch := func() int64 {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/results")
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("stream status %d", resp.StatusCode)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	b.SetBytes(fetch())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}
