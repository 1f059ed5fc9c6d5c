package load

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"emgo/internal/leakcheck"
)

func TestRunAccountsEveryArrival(t *testing.T) {
	leakcheck.Check(t)
	srv, c := &fakeServer{}, ClientConfig{}
	ts := newHTTPTestServer(t, srv)
	c.BaseURL = ts.URL

	res, err := Run(context.Background(), RunConfig{
		Schedule: ScheduleConfig{
			Profile: ProfileUniform, Rate: 200, Duration: time.Second,
			Seed: 3, PickN: 32, Blend: Blend{Single: 90, Malformed: 5, Status: 5},
		},
		Client: c,
		Pool:   testPool(32),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 200 {
		t.Fatalf("scheduled %d, want 200", res.Scheduled)
	}
	if res.Sent+res.Dropped+res.Unsent != res.Scheduled {
		t.Fatalf("sent %d + dropped %d + unsent %d != scheduled %d",
			res.Sent, res.Dropped, res.Unsent, res.Scheduled)
	}
	if res.Completed != res.Sent {
		t.Fatalf("completed %d != sent %d", res.Completed, res.Sent)
	}
	var classTotal int64
	for _, n := range res.Classes {
		classTotal += n
	}
	if classTotal != res.Completed {
		t.Fatalf("class counts sum to %d, completions %d", classTotal, res.Completed)
	}
	if res.Classes[ClassOK] != res.Completed {
		t.Fatalf("%d of %d completions ok against a healthy server: %v",
			res.Classes[ClassOK], res.Completed, res.Classes)
	}
	if res.Hist.Count != res.Completed {
		t.Fatalf("histogram holds %d samples, want %d", res.Hist.Count, res.Completed)
	}
	if res.AchievedQPS <= 0 || res.OfferedQPS <= 0 {
		t.Fatalf("rates not computed: offered %.1f achieved %.1f", res.OfferedQPS, res.AchievedQPS)
	}
}

func TestRunDropsAtOutstandingCapInsteadOfDelaying(t *testing.T) {
	leakcheck.Check(t)
	stall := make(chan struct{})
	ts := newStallServer(t, stall)

	start := time.Now()
	res, err := Run(context.Background(), RunConfig{
		Schedule: ScheduleConfig{
			Profile: ProfileUniform, Rate: 100, Duration: time.Second, PickN: 8,
		},
		Client:         ClientConfig{BaseURL: ts.URL, Timeout: 3 * time.Second},
		Pool:           testPool(8),
		maxOutstanding: 4,
	})
	close(stall)
	if err != nil {
		t.Fatal(err)
	}
	// Every request past the 4 in-flight slots must be dropped, and the
	// dispatch loop must still finish on schedule: open-loop generators
	// never convert backpressure into delayed sends.
	if res.Dropped < 90 {
		t.Fatalf("dropped %d of %d, want the bulk of the schedule", res.Dropped, res.Scheduled)
	}
	if res.Sent > 8 {
		t.Fatalf("sent %d requests with 4 slots against a stalled server", res.Sent)
	}
	if e := time.Since(start); e > 6*time.Second {
		t.Fatalf("run took %v — drops must not delay the schedule", e)
	}
}

func TestRunChargesLatencyFromScheduledSendTime(t *testing.T) {
	leakcheck.Check(t)
	// A server with a constant 30ms service time, loaded at a rate its
	// one connection can absorb: measured latency must be >= the service
	// time for every request (charged from the schedule, it can only be
	// larger, never smaller).
	ts := newDelayServer(t, 30*time.Millisecond)
	res, err := Run(context.Background(), RunConfig{
		Schedule: ScheduleConfig{Profile: ProfileUniform, Rate: 20, Duration: time.Second, PickN: 8},
		Client:   ClientConfig{BaseURL: ts.URL},
		Pool:     testPool(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if p50 := res.Hist.Quantile(0.5); p50 < 25 {
		t.Fatalf("p50 %.1fms below the 30ms service time — latency is not charged from the scheduled send", p50)
	}
}

func TestRunCancellation(t *testing.T) {
	leakcheck.Check(t)
	ts := newHTTPTestServer(t, &fakeServer{})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, RunConfig{
		Schedule: ScheduleConfig{Profile: ProfileUniform, Rate: 50, Duration: 10 * time.Second, PickN: 8},
		Client:   ClientConfig{BaseURL: ts.URL},
		Pool:     testPool(8),
	})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Unsent == 0 {
		t.Fatal("cancellation abandoned no arrivals on a 10s schedule")
	}
}

func TestRunLiveReporting(t *testing.T) {
	leakcheck.Check(t)
	ts := newHTTPTestServer(t, &fakeServer{})
	var buf syncBuffer
	_, err := Run(context.Background(), RunConfig{
		Schedule:    ScheduleConfig{Profile: ProfileUniform, Rate: 100, Duration: time.Second, PickN: 8},
		Client:      ClientConfig{BaseURL: ts.URL},
		Pool:        testPool(8),
		ReportEvery: 200 * time.Millisecond,
		Report:      &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "eps=") || !strings.Contains(out, "p99=") {
		t.Fatalf("live report lines missing eps/percentiles:\n%s", out)
	}
}

func TestRunRejectsRecordBlendWithoutPool(t *testing.T) {
	_, err := Run(context.Background(), RunConfig{
		Schedule: ScheduleConfig{Profile: ProfileUniform, Rate: 10, Duration: time.Second},
		Client:   ClientConfig{BaseURL: "http://127.0.0.1:1"},
	})
	if err == nil || !strings.Contains(err.Error(), "record pool") {
		t.Fatalf("record-bearing blend without a pool accepted: %v", err)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for the reporter goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newHTTPTestServer boots the fake emserve for a test.
func newHTTPTestServer(t *testing.T, f *fakeServer) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(f.handler())
	t.Cleanup(ts.Close)
	return ts
}

// newStallServer answers nothing until stall closes (or the request is
// abandoned).
func newStallServer(t *testing.T, stall chan struct{}) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// newDelayServer answers 200 after a fixed service time.
func newDelayServer(t *testing.T, d time.Duration) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
		w.Write([]byte(`{"degraded": false}`))
	}))
	t.Cleanup(ts.Close)
	return ts
}
