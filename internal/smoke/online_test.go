//go:build smoke

package smoke

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// smokeServe drives an overloaded deployment: max-inflight 1, no wait
// queue and every pipeline pass sleeping 250ms. A matcher that outruns
// its ML sub-budget must degrade to a rule-only 200, a burst must both
// serve and shed (429 + Retry-After), and SIGTERM must drain.
//
// The degrade is one sleep at the first serve.predict call, inside the
// learned stage's ML sub-budget: 4s, past the sub-budget (0.7 of the
// ~4.75s the default 5s deadline has left after the 250ms pass sleep:
// ~3.3s) and 750ms inside the deadline.
func smokeServe(t *testing.T) {
	dir := t.TempDir()
	s := start(t, dir, "serve", nil,
		"-max-inflight", "1", "-max-queue", "-1",
		"-inject", "serve.predict:mode=sleep,sleep=4s,oncall=1",
		"-inject", "serve.match:mode=sleep,sleep=250ms")
	if code, _, _ := s.call(t, http.MethodGet, "/healthz", nil, nil); code != 200 {
		t.Errorf("healthz = %d, want 200", code)
	}

	var mr struct {
		Degraded       bool   `json:"degraded"`
		DegradedReason string `json:"degraded_reason"`
		Candidates     int    `json:"candidates"`
	}
	data := s.match(t, "serve-degrade", 200)
	if err := json.Unmarshal(data, &mr); err != nil || mr.Candidates == 0 || !mr.Degraded || mr.DegradedReason != "matcher_timeout" {
		t.Errorf("matcher slowed past its sub-budget, want a matcher_timeout answer with candidates (%v): %s", err, data)
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
	// The shedding and pipeline-or-queue recipes read these two off
	// /v1/status. With no wait line every 429 is a full one, and every
	// request served — the burst's and the degraded one — ran a pass.
	var status struct {
		Shed struct {
			QueueFull int `json:"queue_full"`
		} `json:"shed"`
		LatencyMS struct {
			Count int `json:"count"`
		} `json:"latency_ms"`
	}
	s.getJSON(t, "/v1/status", &status)
	if status.Shed.QueueFull != shed || status.LatencyMS.Count < served+1 {
		t.Errorf("/v1/status after the burst: shed.queue_full %d, latency_ms.count %d; want the %d 429s and at least the %d passes served",
			status.Shed.QueueFull, status.LatencyMS.Count, shed, served+1)
	}
	// Profiling is the standard pprof, on the service's own listener.
	if code, _, _ := s.call(t, http.MethodGet, "/debug/pprof/", nil, nil); code != 200 {
		t.Errorf("/debug/pprof/ = %d, want 200", code)
	}

	if code, _, _ := s.call(t, http.MethodGet, "/readyz", nil, nil); code != 200 {
		t.Errorf("readyz = %d after the drill", code)
	}
	s.drain(t, "drain complete")
}

// smokeObs holds the serving-observability contract: request IDs echo,
// the access log samples plain ok requests yet keeps the injected 600ms
// outlier with its serve.match stage, and on a server whose every pass
// fails no failure is ever sampled out of the log and an `emload` soak
// fails its gate (exit 1) on availability.
func smokeObs(t *testing.T) {
	const n, slow = 8, "obs-4"
	dir := t.TempDir()
	log1 := filepath.Join(dir, "events.jsonl")
	s := start(t, dir, "obs_healthy", nil,
		"-access-log", log1, "-access-sample", "1000",
		"-inject", "serve.match:mode=sleep,sleep=600ms,oncall=4")
	for i := 1; i <= n; i++ {
		s.match(t, fmt.Sprintf("obs-%d", i), 200)
	}
	// The drained server has written every line it will.
	s.drain(t)

	seen := map[any]int{}
	for _, ev := range events(t, log1) {
		seen[ev["request_id"]]++
		if ev["request_id"] != slow {
			continue
		}
		stages, _ := ev["stages"].(map[string]any)
		if ms, _ := ev["duration_ms"].(float64); stages["serve.match"] == nil || ms < 500 {
			t.Errorf("outlier wide event needs duration_ms >= 500 and a serve.match stage: %v", ev)
		}
	}
	if seen[slow] != 1 {
		t.Errorf("slow request %s has %d wide events at -access-sample 1000, want exactly 1", slow, seen[slow])
	}
	for _, id := range []string{"obs-2", "obs-3"} {
		if seen[id] != 0 {
			t.Errorf("request %s was logged at -access-sample 1000: sampling is off", id)
		}
	}

	// Every pipeline pass fails: each failure is logged and the gate trips.
	log2 := filepath.Join(dir, "events2.jsonl")
	s = start(t, dir, "obs_burn", nil,
		"-access-log", log2, "-access-sample", "5", "-inject", "serve.match")
	for i := 1; i <= n; i++ {
		s.match(t, fmt.Sprintf("burn-%d", i), 500)
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
	code, out := cli(t, "emload", "-mode", "soak", "-addr", s.Addr, "-right", right, "-seed", dataSeed,
		"-profile", "uniform", "-rate", "5", "-duration", "2s", "-report-every", "0",
		"-slo", "availability=99.9", "-summary", filepath.Join(dir, "burn.json"))
	wantCLI(t, "soak of a failing server", code, out, 1)
	if !regexp.MustCompile(`gate availability.*BREACH`).MatchString(out) {
		t.Errorf("the tripped gate did not name the availability objective:\n%s", out)
	}
	s.drain(t)
}
