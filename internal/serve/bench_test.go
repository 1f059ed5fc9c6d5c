package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"emgo/internal/contprof"
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

// profiledConfig is observedConfig with the continuous profiler armed
// at its production defaults: the 60s interval means no periodic
// capture fires during the benchmark, so what is measured is the
// steady-state cost of carrying the profiler — the per-route pprof
// label arm on every request, the tail-outlier trigger hook (hit on
// every heap displacement), and the default mutex/block sampling
// rates. Capture work itself (CPU window, profile serialization,
// gzip) is deliberately excluded the same way the interval capture
// is: pre-firing the tail-outlier trigger under the 30 s cooldown
// dedups every displacement-driven trigger in the timed region, so
// the per-op numbers price what every request pays, not the rare
// policy-bounded capture. The *ObservedProfiled benchmarks against
// their *Observed counterparts are the profiler's <5% overhead guard.
func profiledConfig(b *testing.B) Config {
	b.Helper()
	// The harness re-invokes the benchmark body while ramping b.N, but
	// cleanups only run at the end, so without this each ramp step
	// would stack another live profiler under the timed region.
	if prev := lastBenchProfiler; prev != nil {
		prev.Stop()
	}
	dir := b.TempDir()
	p, err := contprof.Open(contprof.Config{
		Dir:         dir,
		Interval:    contprof.DefaultInterval,
		CPUDuration: 10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	p.Start()
	lastBenchProfiler = p
	b.Cleanup(p.Stop)
	if !p.Trigger(contprof.TriggerTailOutlier, "bench pre-fire", "") {
		b.Fatal("contprof: pre-fire trigger not scheduled")
	}
	waitForCapture(b, dir)
	cfg := observedConfig()
	cfg.Profiler = p
	return cfg
}

// lastBenchProfiler is the profiler armed by the most recent
// profiledConfig call; Stop is idempotent, so stopping it both here and
// in its own cleanup is safe.
var lastBenchProfiler *contprof.Profiler

// waitForCapture blocks until the pre-fired capture's sidecar lands, so
// none of its work overlaps the timed region.
func waitForCapture(b *testing.B, dir string) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		metas, err := filepath.Glob(filepath.Join(dir, "*.meta.json"))
		if err != nil {
			b.Fatal(err)
		}
		if len(metas) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.Fatal("contprof: pre-fired capture never completed")
}

// BenchmarkMatchSingleObservedProfiled is BenchmarkMatchSingleObserved
// with the continuous profiler carried at the default interval.
func BenchmarkMatchSingleObservedProfiled(b *testing.B) {
	s, _ := newTestServer(b, profiledConfig(b))
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

// BenchmarkMatchBatch32ObservedProfiled is BenchmarkMatchBatch32Observed
// with the continuous profiler carried at the default interval.
func BenchmarkMatchBatch32ObservedProfiled(b *testing.B) {
	s, _ := newTestServer(b, profiledConfig(b))
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
