package obs

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"emgo/internal/leakcheck"
)

func TestDebugServerServesExpvarAndPprof(t *testing.T) {
	leakcheck.Check(t)
	srv, err := StartDebugServer(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	vars := get("/debug/vars")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &doc); err != nil {
		t.Fatalf("expvar output is not JSON: %v\n%s", err, vars)
	}
	// The standard library's own expvars, and nothing of ours.
	if doc["memstats"] == nil || doc["cmdline"] == nil || len(doc) != 2 {
		t.Fatalf("expvar output is not the standard library's memstats and cmdline:\n%s", vars)
	}

	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("pprof index unexpected:\n%s", idx)
	}
}

func TestDebugServerCloseNil(t *testing.T) {
	var d *DebugServer
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDebugServerShutdownOnContextCancel(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := StartDebugServer(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	// Live before cancellation.
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("server not serving before cancel: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case <-srv.done:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop within 5s of context cancellation")
	}

	// The listener must be released: new connections are refused.
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Fatal("listener still accepting connections after shutdown")
	}

	// Shutdown/Close after the context drain are idempotent no-ops.
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDebugServerShutdownDrainsInFlight(t *testing.T) {
	leakcheck.Check(t)
	srv, err := StartDebugServer(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv.srv.Handler.(*http.ServeMux).HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		<-release
		w.Write([]byte("done")) //nolint:errcheck
	})

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- result{body: string(body), err: err}
	}()

	// Let the request reach the handler, then shut down while it is in
	// flight and release it inside the drain window.
	time.Sleep(100 * time.Millisecond)
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-got
	if r.err != nil || r.body != "done" {
		t.Fatalf("in-flight request not drained: body %q err %v", r.body, r.err)
	}
}
