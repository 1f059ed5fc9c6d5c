package contprof

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"emgo/internal/leakcheck"
)

// quickCfg builds a profiler config for tests: tiny CPU window, no
// periodic ticker (tests drive captures explicitly), no runtime
// sampling-rate changes so tests don't fight over global state.
func quickCfg(dir string) Config {
	return Config{
		Dir:           dir,
		Interval:      -1,
		CPUDuration:   10 * time.Millisecond,
		mutexFraction: -1,
		blockRate:     -1,
	}
}

func TestCaptureWritesProfilesAndSidecar(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	p, err := Open(quickCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	m, err := p.CaptureNow(TriggerManual, "unit test", "req-abc")
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != "cap-000000" {
		t.Fatalf("first capture id = %q, want cap-000000", m.ID)
	}
	if m.Trigger != TriggerManual || m.RequestID != "req-abc" {
		t.Fatalf("meta trigger/request = %q/%q", m.Trigger, m.RequestID)
	}
	// Every kind should have been captured (no other CPU profile runs
	// during tests), and every named file must exist and be a valid
	// gzip stream — pprof files are gzipped protos.
	wantKinds := append([]string{KindCPU}, profileKinds...)
	for _, kind := range wantKinds {
		f, ok := m.Profiles[kind]
		if !ok {
			t.Fatalf("capture missing kind %q (errors: %v)", kind, m.Errors)
		}
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("read %s: %v", f, err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Fatalf("%s: not a gzip stream (len %d)", f, len(data))
		}
	}
	// Sidecar on disk must round-trip to the same meta.
	raw, err := os.ReadFile(filepath.Join(dir, m.ID+".meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk Meta
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatalf("sidecar not valid JSON: %v", err)
	}
	if onDisk.ID != m.ID || len(onDisk.Profiles) != len(m.Profiles) {
		t.Fatalf("sidecar mismatch: %+v vs %+v", onDisk, m)
	}
	if onDisk.GoVersion == "" || onDisk.GOMAXPROCS == 0 {
		t.Fatalf("sidecar missing build info: %+v", onDisk)
	}
}

func TestRingPrunesAtCapacity(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	cfg := quickCfg(dir)
	cfg.MaxCaptures = 3
	cfg.CPUDuration = time.Millisecond
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	for i := 0; i < 7; i++ {
		if _, err := p.CaptureNow(TriggerManual, fmt.Sprint(i), ""); err != nil {
			t.Fatal(err)
		}
	}
	got := p.List()
	if len(got) != 3 {
		t.Fatalf("ring holds %d captures, want 3", len(got))
	}
	// Newest three survive, oldest first.
	for i, wantDetail := range []string{"4", "5", "6"} {
		if got[i].Detail != wantDetail {
			t.Fatalf("ring[%d].Detail = %q, want %q", i, got[i].Detail, wantDetail)
		}
	}
	// Pruned captures' files must be gone from disk: only 3 sidecars
	// and 3 sets of profiles remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var metas, profiles int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".meta.json") {
			metas++
		} else {
			profiles++
		}
	}
	if metas != 3 {
		t.Fatalf("%d sidecars on disk, want 3", metas)
	}
	perCapture := len(got[0].Profiles)
	if profiles != 3*perCapture {
		t.Fatalf("%d profile files on disk, want %d", profiles, 3*perCapture)
	}
}

func TestReloadDiscardsTornWrites(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	p, err := Open(quickCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CaptureNow(TriggerManual, "keep", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CaptureNow(TriggerManual, "tear-files", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CaptureNow(TriggerManual, "tear-sidecar", ""); err != nil {
		t.Fatal(err)
	}
	p.Stop()

	// Tear capture 1 by deleting one of the files its sidecar names,
	// and capture 2 by corrupting the sidecar itself. Also drop a stray
	// profile with no sidecar at all (a crash before the sidecar wrote)
	// and a leftover temp file.
	if err := os.Remove(filepath.Join(dir, "cap-000001.heap.pprof")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cap-000002.meta.json"), []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, stray := range []string{"cap-000007.cpu.pprof", ".tmp-cap-000008"} {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	p2, err := Open(quickCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Stop()
	got := p2.List()
	if len(got) != 1 || got[0].Detail != "keep" {
		t.Fatalf("reload kept %d captures (%+v), want only the intact one", len(got), got)
	}
	// The torn captures' remnants and strays must have been swept.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "cap-000000.") {
			t.Fatalf("sweep left %q behind", e.Name())
		}
	}
	// New captures must not reuse torn ids: the sequence continues past
	// every capture-shaped name ever seen on disk (the stray
	// cap-000007 included), so fetch URLs stay unambiguous.
	m, err := p2.CaptureNow(TriggerManual, "next", "")
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != "cap-000008" {
		t.Fatalf("post-reload capture id = %q, want cap-000008", m.ID)
	}
}

func TestTriggerDedupUnderBreachStorm(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	cfg := quickCfg(dir)
	cfg.triggerCooldown = time.Hour
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	// A breach storm: every failing request fires a trigger. Exactly
	// one capture must be scheduled for the reason.
	var scheduled int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.Trigger(TriggerSLOBreach, "burn", "") {
				mu.Lock()
				scheduled++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if scheduled != 1 {
		t.Fatalf("%d captures scheduled during the storm, want 1", scheduled)
	}
	waitForCaptures(t, p, 1)
	if got := p.List(); got[0].Trigger != TriggerSLOBreach {
		t.Fatalf("capture trigger = %q", got[0].Trigger)
	}
	// Still inside the cooldown: further triggers for the same reason
	// are deduplicated, but a different reason passes.
	if p.Trigger(TriggerSLOBreach, "burn again", "") {
		t.Fatal("trigger inside cooldown was not deduplicated")
	}
	if !p.Trigger(TriggerTailOutlier, "slow request", "req-1") {
		t.Fatal("different reason was wrongly deduplicated")
	}
	waitForCaptures(t, p, 2)
}

func TestTriggerRejectsHostileReasons(t *testing.T) {
	leakcheck.Check(t)
	p, err := Open(quickCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	for _, reason := range []string{"", "../../etc/passwd", "a b", strings.Repeat("x", 65)} {
		if p.Trigger(reason, "", "") {
			t.Fatalf("hostile reason %q accepted", reason)
		}
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.Start()
	p.Stop()
	p.SetBreachProbe(func() (bool, string) { return true, "" })
	if p.Trigger(TriggerManual, "", "") {
		t.Fatal("nil profiler scheduled a capture")
	}
	if p.List() != nil || p.Lookup("cap-000000") != nil || p.Dir() != "" {
		t.Fatal("nil profiler returned non-zero state")
	}
	if _, err := p.CaptureNow(TriggerManual, "", ""); err == nil {
		t.Fatal("nil CaptureNow did not error")
	}
	// The HTTP handler on a nil profiler answers 404, not a panic.
	rr := httptest.NewRecorder()
	p.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/contprof", nil))
	if rr.Code != 404 {
		t.Fatalf("nil handler status = %d, want 404", rr.Code)
	}
}

func TestPeriodicIntervalCaptures(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	cfg := quickCfg(dir)
	cfg.Interval = 50 * time.Millisecond
	cfg.breachPoll = 10 * time.Millisecond
	cfg.CPUDuration = 5 * time.Millisecond
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	waitForCaptures(t, p, 1)
	p.Stop()
	var interval int
	for _, m := range p.List() {
		if m.Trigger == TriggerInterval {
			interval++
		}
	}
	if interval == 0 {
		t.Fatal("periodic loop produced no interval captures")
	}
	// Stop is idempotent and Start-after-Stop stays stopped.
	p.Stop()
	p.Start()
	p.Stop()
}

func TestBreachProbeFiresTrigger(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	cfg := quickCfg(dir)
	cfg.Interval = time.Hour // only the probe can fire
	cfg.breachPoll = 10 * time.Millisecond
	cfg.CPUDuration = 5 * time.Millisecond
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.SetBreachProbe(func() (bool, string) { return true, "availability burning" })
	p.Start()
	waitForCaptures(t, p, 1)
	p.Stop()
	got := p.List()
	if got[0].Trigger != TriggerSLOBreach || got[0].Detail != "availability burning" {
		t.Fatalf("probe capture = %+v", got[0])
	}
}

func TestHandlerListFetchTrigger(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	cfg := quickCfg(dir)
	cfg.triggerCooldown = time.Hour
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	m, err := p.CaptureNow(TriggerManual, "seed", "")
	if err != nil {
		t.Fatal(err)
	}
	h := p.Handler()

	// List.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/contprof", nil))
	if rr.Code != 200 {
		t.Fatalf("list status = %d", rr.Code)
	}
	var listing struct {
		Dir      string  `json:"dir"`
		Captures []*Meta `json:"captures"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &listing); err != nil {
		t.Fatalf("list not JSON: %v", err)
	}
	if len(listing.Captures) != 1 || listing.Captures[0].ID != m.ID {
		t.Fatalf("listing = %+v", listing)
	}

	// Fetch a real profile: must be the gzip bytes from disk.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/contprof/fetch?id="+m.ID+"&kind=heap", nil))
	if rr.Code != 200 {
		t.Fatalf("fetch status = %d: %s", rr.Code, rr.Body.String())
	}
	if b := rr.Body.Bytes(); len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatal("fetched profile is not gzip")
	}

	// Fetch must refuse ids and kinds outside the ring — including
	// traversal-shaped ones.
	for _, q := range []string{
		"id=nope&kind=heap",
		"id=" + m.ID + "&kind=nope",
		"id=../" + m.ID + "&kind=heap",
		"id=" + m.ID + "&kind=../../etc/passwd",
	} {
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/contprof/fetch?"+q, nil))
		if rr.Code != 404 {
			t.Fatalf("fetch %q status = %d, want 404", q, rr.Code)
		}
	}

	// Trigger over HTTP: first fires (202), the duplicate inside the
	// cooldown reports deduplication (200, scheduled=false). GET is
	// refused — captures mutate disk.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/debug/contprof/trigger?reason=loadtest&detail=plateau", nil))
	if rr.Code != 202 {
		t.Fatalf("trigger status = %d: %s", rr.Code, rr.Body.String())
	}
	waitForCaptures(t, p, 2)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/debug/contprof/trigger?reason=loadtest", nil))
	if rr.Code != 200 {
		t.Fatalf("dup trigger status = %d", rr.Code)
	}
	var resp struct {
		Scheduled bool `json:"scheduled"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil || resp.Scheduled {
		t.Fatalf("dup trigger resp = %s (err %v)", rr.Body.String(), err)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/contprof/trigger?reason=x", nil))
	if rr.Code != 405 {
		t.Fatalf("GET trigger status = %d, want 405", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/debug/contprof/trigger?reason=no+spaces+allowed", nil))
	if rr.Code != 400 {
		t.Fatalf("hostile reason status = %d, want 400", rr.Code)
	}
}

func TestDoAppliesLabels(t *testing.T) {
	var route string
	Do(context.Background(), func(ctx context.Context) {
		if v, ok := pprof.Label(ctx, "route"); ok {
			route = v
		}
	}, "route", "/v1/match")
	if route != "/v1/match" {
		t.Fatalf("label route = %q", route)
	}
	// Odd/empty label sets still run f, unlabeled.
	ran := false
	Do(context.Background(), func(ctx context.Context) { ran = true }, "odd")
	if !ran {
		t.Fatal("Do with odd labels did not run f")
	}
}

// waitForCaptures polls until the ring holds at least n captures
// (triggered captures land asynchronously).
func waitForCaptures(t *testing.T, p *Profiler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(p.List()) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("ring never reached %d captures (have %d)", n, len(p.List()))
}
