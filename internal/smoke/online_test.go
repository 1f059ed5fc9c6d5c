//go:build smoke

package smoke

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// smokeServe drives an overloaded deployment: max-inflight 1, no wait
// queue, every matcher call failing and every pipeline pass sleeping
// 250ms. Matcher faults must degrade to rule-only 200s, a burst must
// both serve and shed (429 + Retry-After), a hot reload must keep the
// in-flight request, a corrupt artifact must be refused with the active
// matcher kept, and SIGTERM must drain.
func smokeServe(t *testing.T) {
	dir := t.TempDir()
	s := start(t, dir, "serve", "", nil,
		"-max-inflight", "1", "-max-queue", "-1",
		"-inject", "ml.predict", "-inject", "serve.match:mode=sleep,sleep=250ms")
	if code, _, _ := s.call(t, http.MethodGet, "/healthz", nil, nil); code != 200 {
		t.Errorf("healthz = %d, want 200", code)
	}

	var mr struct {
		Degraded       bool   `json:"degraded"`
		DegradedReason string `json:"degraded_reason"`
		Candidates     int    `json:"candidates"`
	}
	data := s.match(t, "serve-degrade", 200)
	if err := json.Unmarshal(data, &mr); err != nil || mr.Candidates == 0 || !mr.Degraded || mr.DegradedReason == "" {
		t.Errorf("matcher faults armed, want a degraded answer with candidates and a reason (%v): %s", err, data)
	}

	const burst = 12
	var (
		mu                         sync.Mutex
		wg                         sync.WaitGroup
		served, shed, noHint, rest int
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, h, _, err := s.c.Call(ctx, http.MethodPost, "/v1/match", probe, nil)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && status == 200:
				served++
			case err == nil && status == 429:
				shed++
				if h.Get("Retry-After") == "" {
					noHint++
				}
			default:
				rest++
			}
		}()
	}
	wg.Wait()
	t.Logf("burst of %d: %d served, %d shed, %d other", burst, served, shed, rest)
	if served == 0 || shed == 0 || noHint > 0 || rest > 0 {
		t.Errorf("burst of %d at max-inflight 1: %d served, %d shed (%d without Retry-After), %d other — want some served, some shed, every shed hinted",
			burst, served, shed, noHint, rest)
	}
	// The shedding and pipeline-or-queue recipes read these two off /debug/vars.
	var vars struct {
		Metrics struct {
			Counters   map[string]json.RawMessage `json:"counters"`
			Histograms map[string]json.RawMessage `json:"histograms"`
		} `json:"em_metrics"`
	}
	s.getJSON(t, "/debug/vars", &vars)
	if vars.Metrics.Counters["serve.shed.queue_full"] == nil || vars.Metrics.Histograms["serve.latency_ms"] == nil {
		t.Errorf("/debug/vars em_metrics lacks serve.shed.queue_full or serve.latency_ms after a shed burst: %+v", vars.Metrics)
	}

	// Hot reload under traffic: the slow request in flight must finish.
	inFlight := make(chan int, 1)
	go func() {
		status, _, _, _ := s.c.Call(ctx, http.MethodPost, "/v1/match", probe, nil)
		inFlight <- status
	}()
	time.Sleep(100 * time.Millisecond) // let it enter the pipeline
	reload := func(path string) (int, []byte) {
		code, _, data := s.call(t, http.MethodPost, "/-/reload", []byte(fmt.Sprintf(`{"path":%q}`, path)), nil)
		return code, data
	}
	if code, data := reload(matcher); code != 200 {
		t.Errorf("reload = %d: %s", code, data)
	}
	if status := <-inFlight; status != 200 && status != 429 {
		t.Errorf("request in flight across the reload finished %d", status)
	}

	// A corrupt artifact is refused and the active matcher keeps serving.
	var before, after struct {
		Matcher struct {
			Checksum string `json:"checksum"`
		} `json:"matcher"`
	}
	s.getJSON(t, "/v1/status", &before)
	corrupt := filepath.Join(dir, "corrupt.json")
	raw := readFile(t, matcher)
	if err := os.WriteFile(corrupt, []byte(raw[:len(raw)/2]), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, data := reload(corrupt); code != 422 || before.Matcher.Checksum == "" || !strings.Contains(string(data), before.Matcher.Checksum) {
		t.Errorf("corrupt reload = %d, want 422 confirming active checksum %q: %s", code, before.Matcher.Checksum, data)
	}
	if s.getJSON(t, "/v1/status", &after); after.Matcher.Checksum != before.Matcher.Checksum {
		t.Errorf("active checksum changed across a failed reload: %q -> %q", before.Matcher.Checksum, after.Matcher.Checksum)
	}
	if code, _, _ := s.call(t, http.MethodGet, "/readyz", nil, nil); code != 200 {
		t.Errorf("readyz = %d after the drill", code)
	}
	s.drain(t, "drain complete")
}

// tailEntry is the slice of a /debug/tail entry the obs scenario reads.
type tailEntry struct {
	Event struct {
		RequestID  string  `json:"request_id"`
		DurationMS float64 `json:"duration_ms"`
	} `json:"event"`
	Trace *struct {
		Children []json.RawMessage `json:"children"`
	} `json:"trace"`
}

// smokeObs holds the serving-observability contract: request IDs echo,
// each request leaves exactly one wide event, the injected 300ms outlier
// is retained with its span tree in /debug/tail and the drain-time dump,
// and `emmonitor slo` exits 0 on a healthy server and 1 on one burning
// its budget, where no failure is ever sampled out of the log.
func smokeObs(t *testing.T) {
	const n, slow = 8, "obs-4"
	dir := t.TempDir()
	log1, dump := filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "tail.json")
	s := start(t, dir, "obs_healthy", "", nil,
		"-access-log", log1, "-access-sample", "1", "-tail-n", "8", "-tail-dump", dump,
		"-slo", "availability=99.9,latency=2s@95",
		"-inject", "serve.match:mode=sleep,sleep=300ms,oncall=4")
	for i := 1; i <= n; i++ {
		s.match(t, fmt.Sprintf("obs-%d", i), 200)
	}

	var snap struct{ Slowest, Errored []tailEntry }
	s.getJSON(t, "/debug/tail", &snap)
	var outlier *tailEntry
	for i := range snap.Slowest {
		if snap.Slowest[i].Event.RequestID == slow {
			outlier = &snap.Slowest[i]
		}
	}
	if outlier == nil || outlier.Event.DurationMS < 250 || outlier.Trace == nil || len(outlier.Trace.Children) == 0 {
		t.Errorf("/debug/tail must retain %s with >= 250ms and a span tree, got %+v of %d slowest", slow, outlier, len(snap.Slowest))
	}

	seen := map[any]int{}
	for _, ev := range events(t, log1) {
		seen[ev["request_id"]]++
		if stages, _ := ev["stages"].(map[string]any); ev["request_id"] == slow && stages["serve.match"] == nil {
			t.Errorf("outlier wide event has no serve.match stage timing: %v", ev)
		}
	}
	for i := 1; i <= n; i++ {
		if id := fmt.Sprintf("obs-%d", i); seen[id] != 1 {
			t.Errorf("request %s has %d wide events, want exactly 1", id, seen[id])
		}
	}
	if st, err := s.c.Status(ctx); err != nil || st.SLO == nil || len(st.SLO.Objectives) == 0 || st.SLO.Breached {
		t.Errorf("healthy /v1/status must carry an unbreached SLO report (%v): %+v", err, st)
	}
	code, out := cli(t, "emmonitor", "slo", "-url", s.BaseURL())
	wantCLI(t, "emmonitor slo (healthy)", code, out, 0, "error budget holds")
	s.drain(t, "tail snapshot written")
	wantFragments(t, "tail dump", readFile(t, dump), `"slowest"`)

	// Every pipeline pass fails: the budget burns and the gate trips.
	log2 := filepath.Join(dir, "events2.jsonl")
	s = start(t, dir, "obs_burn", "", nil,
		"-access-log", log2, "-access-sample", "5", "-slo", "availability=99.9", "-inject", "serve.match")
	for i := 1; i <= n; i++ {
		s.match(t, fmt.Sprintf("burn-%d", i), 500)
	}
	if st, err := s.c.Status(ctx); err != nil || st.SLO == nil || !st.SLO.Breached {
		t.Errorf("100%% failures did not breach the SLO (%v): %+v", err, st)
	}
	errored := 0
	for _, ev := range events(t, log2) {
		if ev["outcome"] == "error" {
			errored++
			if ev["error"] == nil {
				t.Errorf("error wide event carries no error field: %v", ev)
			}
		}
	}
	if errored < n {
		t.Errorf("access log has %d error events at -access-sample 5, want all %d", errored, n)
	}
	if s.getJSON(t, "/debug/tail", &snap); len(snap.Errored) == 0 {
		t.Errorf("/debug/tail errored set is empty after %d failures", n)
	}
	code, out = cli(t, "emmonitor", "slo", "-url", s.BaseURL())
	wantCLI(t, "emmonitor slo (burning)", code, out, 1, "availability")
	s.drain(t)
}
