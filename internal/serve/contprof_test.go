package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"emgo/internal/contprof"
	"emgo/internal/fault"
	"emgo/internal/leakcheck"
)

// profConfig builds a serve Config with a profiler over dir that is never
// started: triggered captures only (no periodic goroutine, no global
// mutex/block sampling, so tests stay independent), tiny CPU window.
func profConfig(t *testing.T) (Config, *contprof.Profiler) {
	t.Helper()
	p, err := contprof.Open(contprof.Config{
		Dir:         t.TempDir(),
		Interval:    -1,
		CPUDuration: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return Config{Profiler: p}, p
}

func TestContprofEndpointMountsWithProfiler(t *testing.T) {
	leakcheck.Check(t)
	cfg, _ := profConfig(t)
	_, ts := newTestServer(t, cfg)

	// Requests run under pprof labels; the route must answer normally.
	status, _, body := postMatch(t, ts.URL, l0Request)
	if status != http.StatusOK {
		t.Fatalf("match status = %d, body %s", status, body)
	}

	// The ring listing is mounted and parseable.
	resp, err := http.Get(ts.URL + "/debug/contprof")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contprof list status = %d", resp.StatusCode)
	}
	var listing struct {
		Dir string `json:"dir"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatalf("contprof listing not JSON: %v", err)
	}
	if listing.Dir == "" {
		t.Fatal("contprof listing carries no ring dir")
	}

	// A trigger over the mounted endpoint schedules a capture.
	tresp, err := http.Post(ts.URL+"/debug/contprof/trigger?reason=test", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, tresp.Body) //nolint:errcheck
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusAccepted {
		t.Fatalf("trigger status = %d", tresp.StatusCode)
	}
}

func TestContprofEndpointAbsentWithoutProfiler(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/contprof")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("contprof without profiler status = %d, want 404", resp.StatusCode)
	}
}

func TestTailOutlierTriggersCapture(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	cfg, p := profConfig(t)
	cfg.TailN = 2
	_, ts := newTestServer(t, cfg)

	// Fill the tail heap (TailN=2) with fast requests, then inject one
	// 60ms sleeper: slower than everything retained, it displaces the
	// heap root and must trigger a tail_outlier capture.
	for i := 0; i < 3; i++ {
		status, _, body := postMatch(t, ts.URL, l0Request)
		if status != http.StatusOK {
			t.Fatalf("match %d status = %d, body %s", i, status, body)
		}
	}
	if _, err := fault.EnableSpec("serve.match:mode=sleep,sleep=60ms,oncall=1"); err != nil {
		t.Fatal(err)
	}
	status, _, body := postMatch(t, ts.URL, l0Request)
	if status != http.StatusOK {
		t.Fatalf("outlier match status = %d, body %s", status, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, m := range p.List() {
			if m.Trigger == contprof.TriggerTailOutlier {
				if m.RequestID == "" {
					t.Fatal("tail_outlier capture carries no request id")
				}
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no tail_outlier capture landed; ring: %+v", p.List())
}
