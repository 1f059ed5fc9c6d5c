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
	shedEvery       int64 // every Nth request answers 429
	shedRetryAfter  bool  // sheds carry Retry-After: 1
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
			if f.shedRetryAfter {
				w.Header().Set("Retry-After", "1")
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

func TestClientShedTracking(t *testing.T) {
	leakcheck.Check(t)
	c, _ := newTestClient(t, &fakeServer{shedEvery: 1, shedRetryAfter: true}, ClientConfig{})
	out := c.Do(context.Background(), 0, Arrival{Kind: KindSingle})
	if out.Class != ClassShed {
		t.Fatalf("class %s, want shed", out.Class)
	}
	if out.ShedNoRetryAfter {
		t.Fatal("Retry-After was present but flagged missing")
	}

	c2, _ := newTestClient(t, &fakeServer{shedEvery: 1, shedRetryAfter: false}, ClientConfig{})
	out = c2.Do(context.Background(), 0, Arrival{Kind: KindSingle})
	if !out.ShedNoRetryAfter {
		t.Fatal("missing Retry-After on a shed answer was not flagged")
	}
}

func TestClientShedRetriesHonorHint(t *testing.T) {
	leakcheck.Check(t)
	f := &fakeServer{shedEvery: 2, shedRetryAfter: true} // every 2nd request sheds
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	c := NewClient(ClientConfig{
		BaseURL:       srv.URL,
		ShedRetries:   2,
		MaxRetryAfter: 50 * time.Millisecond, // cap the 1s hint so the test is fast
	}, testPool(8))
	defer c.CloseIdle()

	// Request #2 to the server sheds; with retries armed the client must
	// come back and land the answer.
	start := time.Now()
	c.Do(context.Background(), 0, Arrival{Kind: KindSingle}) // request 1: ok
	out := c.Do(context.Background(), 1, Arrival{Kind: KindSingle})
	if out.Class != ClassOK {
		t.Fatalf("retried request classified %s, want ok", out.Class)
	}
	if out.Attempts < 2 {
		t.Fatalf("%d attempts recorded, want >= 2", out.Attempts)
	}
	// The retry delay must be bounded by MaxRetryAfter, not the server's
	// 1-second hint.
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("retry stalled %v — the Retry-After cap did not bite", e)
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
