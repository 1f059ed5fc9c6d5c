package load

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"emgo/internal/leakcheck"
)

// testPool builds an in-memory record pool (no CSV on disk needed).
func testPool(n int) *RecordPool {
	titles := make([]string, n)
	for i := range titles {
		titles[i] = "award title " + string(rune('a'+i%26))
	}
	return &RecordPool{titles: titles}
}

// fakeServer mimics emserve's envelope behavior closely enough to
// exercise every classification path.
type fakeServer struct {
	shedEvery       int64  // every Nth request answers 429
	shedRetryAfter  string // the Retry-After value sheds carry ("" = none)
	degraded        bool
	requests        atomic.Int64
	malformedAnswer int // status for malformed bodies (default 400)
}

func (f *fakeServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"breaker": "closed"})
	})
	mux.HandleFunc("/v1/match", func(w http.ResponseWriter, r *http.Request) {
		n := f.requests.Add(1)
		if f.shedEvery > 0 && n%f.shedEvery == 0 {
			if f.shedRetryAfter != "" {
				w.Header().Set("Retry-After", f.shedRetryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		body, _ := io.ReadAll(io.LimitReader(r.Body, 4<<20))
		if len(body) > 1<<20 {
			w.WriteHeader(http.StatusRequestEntityTooLarge)
			return
		}
		var doc struct {
			Record map[string]any `json:"record"`
		}
		if err := json.Unmarshal(body, &doc); err != nil || doc.Record == nil {
			status := f.malformedAnswer
			if status == 0 {
				status = http.StatusBadRequest
			}
			w.WriteHeader(status)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"degraded": f.degraded})
	})
	mux.HandleFunc("/v1/match/batch", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"results": []map[string]any{{"degraded": f.degraded}},
		})
	})
	return mux
}

func newTestClient(t *testing.T, f *fakeServer, cfg ClientConfig) (*Client, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(f.handler())
	t.Cleanup(srv.Close)
	cfg.BaseURL = srv.URL
	c := NewClient(cfg, testPool(32))
	t.Cleanup(c.CloseIdle)
	return c, srv
}

func TestClientClassifiesKinds(t *testing.T) {
	leakcheck.Check(t)
	c, _ := newTestClient(t, &fakeServer{}, ClientConfig{})
	ctx := context.Background()

	cases := []struct {
		kind  Kind
		class string
	}{
		{KindSingle, ClassOK},
		{KindBatch, ClassOK},
		{KindMalformed, ClassOK}, // 400 is the EXPECTED answer
		{KindOversized, ClassOK}, // 413 is the EXPECTED answer
		{KindStatus, ClassOK},
	}
	for i, tc := range cases {
		out := c.Do(ctx, i, Arrival{Kind: tc.kind, Record: i})
		if out.Class != tc.class {
			t.Errorf("%s: class %s (status %d), want %s", tc.kind, out.Class, out.Status, tc.class)
		}
	}
}

func TestClientMalformedAcceptedIsUnexpected(t *testing.T) {
	leakcheck.Check(t)
	// A server that answers 200 to garbage is broken; the generator must
	// say so rather than celebrate the 200.
	c, _ := newTestClient(t, &fakeServer{malformedAnswer: http.StatusOK}, ClientConfig{})
	out := c.Do(context.Background(), 0, Arrival{Kind: KindMalformed})
	if out.Class != ClassUnexpected {
		t.Fatalf("200 to a malformed body classified %s, want %s", out.Class, ClassUnexpected)
	}
}

// TestClientShedTracking: a shed is classified on its first answer —
// one request to the server, no wait on the 1 s Retry-After — and a
// shed whose Retry-After is missing or not whole seconds is flagged.
func TestClientShedTracking(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range []struct {
		retryAfter string
		flagged    bool
	}{
		{"1", false},
		{"", true},
		{"soon", true},
		{"-1", true},
	} {
		f := &fakeServer{shedEvery: 1, shedRetryAfter: tc.retryAfter}
		c, _ := newTestClient(t, f, ClientConfig{})
		start := time.Now()
		out := c.Do(context.Background(), 0, Arrival{Kind: KindSingle})
		if e := time.Since(start); e > 500*time.Millisecond {
			t.Errorf("Retry-After %q: Do took %v, want an answer well before the 1s hint", tc.retryAfter, e)
		}
		if out.Class != ClassShed || out.Status != http.StatusTooManyRequests {
			t.Errorf("Retry-After %q: class %s (status %d), want shed (429)", tc.retryAfter, out.Class, out.Status)
		}
		if n := f.requests.Load(); n != 1 {
			t.Errorf("Retry-After %q: the server saw %d requests for one shed arrival, want 1", tc.retryAfter, n)
		}
		if out.ShedNoRetryAfter != tc.flagged {
			t.Errorf("Retry-After %q: ShedNoRetryAfter = %v, want %v", tc.retryAfter, out.ShedNoRetryAfter, tc.flagged)
		}
	}
}

func TestClientTimeoutClass(t *testing.T) {
	leakcheck.Check(t)
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(stall)
	c := NewClient(ClientConfig{BaseURL: srv.URL, Timeout: 50 * time.Millisecond}, testPool(8))
	defer c.CloseIdle()
	out := c.Do(context.Background(), 0, Arrival{Kind: KindSingle})
	if out.Class != ClassTimeout {
		t.Fatalf("stalled request classified %s, want timeout", out.Class)
	}
}

func TestClientNetErrorClass(t *testing.T) {
	leakcheck.Check(t)
	// A closed port: connection refused.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()
	c := NewClient(ClientConfig{BaseURL: url, Timeout: time.Second}, testPool(8))
	defer c.CloseIdle()
	out := c.Do(context.Background(), 0, Arrival{Kind: KindSingle})
	if out.Class != ClassNetError {
		t.Fatalf("refused connection classified %s, want net_error", out.Class)
	}
}

func TestClientDegradedDetection(t *testing.T) {
	leakcheck.Check(t)
	c, _ := newTestClient(t, &fakeServer{degraded: true}, ClientConfig{})
	for _, kind := range []Kind{KindSingle, KindBatch} {
		out := c.Do(context.Background(), 0, Arrival{Kind: kind})
		if !out.Degraded {
			t.Errorf("%s: degraded answer not detected", kind)
		}
	}
}
