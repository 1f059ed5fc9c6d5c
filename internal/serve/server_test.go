package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"emgo/internal/block"
	"emgo/internal/fault"
	"emgo/internal/feature"
	"emgo/internal/leakcheck"
	"emgo/internal/ml"
	"emgo/internal/rules"
	"emgo/internal/table"
	"emgo/internal/tokenize"
	"emgo/internal/workflow"
)

// fixtureTables builds the deployable left (schema donor + training
// rows) and right (catalog) tables: one sure match by award number, one
// high-similarity title pair, one similar-title false positive the
// negative rule vetoes.
func fixtureTables(t testing.TB) (*table.Table, *table.Table) {
	t.Helper()
	schema := func() *table.Schema {
		return table.MustSchema(
			table.Field{Name: "RecordId", Kind: table.String},
			table.Field{Name: "Num", Kind: table.String},
			table.Field{Name: "Title", Kind: table.String},
		)
	}
	l := table.New("L", schema())
	l.MustAppend(table.Row{table.S("l0"), table.S("2008-11111-11111"), table.S("corn fungicide guidelines north central")})
	l.MustAppend(table.Row{table.S("l1"), table.Null(table.String), table.S("swamp dodder ecology management carrot")})
	l.MustAppend(table.Row{table.S("l2"), table.S("WIS00001"), table.S("dairy cattle genetics study wisconsin")})

	r := table.New("R", schema())
	r.MustAppend(table.Row{table.S("r0"), table.S("2008-11111-11111"), table.S("corn fungicide guidelines north central")})
	r.MustAppend(table.Row{table.S("r1"), table.Null(table.String), table.S("swamp dodder ecology management carrot")})
	r.MustAppend(table.Row{table.S("r2"), table.S("WIS99999"), table.S("dairy cattle genetics study wisconsin")})
	return l, r
}

// fixtureWorkflow assembles the full deployed workflow shape around the
// fixture tables.
func fixtureWorkflow(t testing.TB) (*workflow.Workflow, *table.Table, *table.Table) {
	t.Helper()
	l, r := fixtureTables(t)
	m1, err := rules.NewEqual("M1", l, "Num", nil, r, "Num", nil, rules.Match)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := rules.NewComparableMismatch("neg", l, "Num", nil, r, "Num", nil, rules.Set{"XXX#####"})
	if err != nil {
		t.Fatal(err)
	}
	corr := map[string]string{"Title": "Title"}
	fs, err := feature.Generate(l, r, corr, []string{"Title"})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []block.Pair{{A: 0, B: 0}, {A: 1, B: 1}, {A: 0, B: 1}, {A: 1, B: 0}, {A: 2, B: 0}, {A: 2, B: 2}}
	y := []int{1, 1, 0, 0, 0, 1}
	x, err := fs.Vectorize(l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	im, err := feature.FitImputer(x)
	if err != nil {
		t.Fatal(err)
	}
	x, err = im.Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ml.NewDataset(fs.Names(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	m := &ml.DecisionTree{}
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	w := &workflow.Workflow{
		Name:      "serve-fixture",
		SureRules: rules.NewEngine(m1),
		Blockers: []block.Blocker{
			block.Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true},
		},
		Features: fs, Imputer: im, Matcher: m,
		NegativeRules: rules.NewEngine(neg),
	}
	return w, l, r
}

// newTestServer spins up the service over the fixture workflow.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	w, l, r := fixtureWorkflow(t)
	s, err := New(context.Background(), cfg, w, l, r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close) // stops the job dispatcher (no-op without a job tier)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postMatch sends one match request and decodes the response envelope.
func postMatch(t *testing.T, url string, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/match", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// l0Request matches r0 through the sure rule (equal award number); its
// blocked candidate is subtracted as already-sure, so the learned
// matcher never runs for it.
const l0Request = `{"record":{"RecordId":"q0","Num":"2008-11111-11111","Title":"corn fungicide guidelines north central"}}`

// l1Request has no award number: it can only match r1 through the
// learned path (title blocking + matcher), which makes it the probe
// that exercises the breaker and fault machinery.
const l1Request = `{"record":{"RecordId":"q1","Title":"swamp dodder ecology management carrot"}}`

func TestMatchEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	_, ts := newTestServer(t, Config{})
	status, _, body := postMatch(t, ts.URL, l0Request)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var mr MatchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Degraded {
		t.Fatalf("healthy request degraded: %s", body)
	}
	if mr.Breaker != "closed" {
		t.Fatalf("breaker = %q, want closed", mr.Breaker)
	}
	var sureHit bool
	for _, m := range mr.Matches {
		if m.RightID == "r0" && m.Source == "rule:M1" {
			sureHit = true
		}
	}
	if !sureHit {
		t.Fatalf("sure-rule match for r0 missing: %s", body)
	}

	// The learned path: a title-only record matches r1 via the matcher.
	status, _, body = postMatch(t, ts.URL, l1Request)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Degraded {
		t.Fatalf("healthy learned-path request degraded: %s", body)
	}
	var learnedHit bool
	for _, m := range mr.Matches {
		if m.RightID == "r1" && m.Source == "matcher" {
			learnedHit = true
			if m.Score == nil {
				t.Fatalf("probabilistic matcher produced no score: %s", body)
			}
		}
	}
	if !learnedHit {
		t.Fatalf("learned match for r1 missing: %s", body)
	}
}

func TestMatchDegradesOnMatcherFault(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	_, ts := newTestServer(t, Config{})
	fault.Enable("ml.predict", fault.Plan{}) // every predict call errors
	status, _, body := postMatch(t, ts.URL, l1Request)
	if status != http.StatusOK {
		t.Fatalf("degraded request must still answer 200, got %d: %s", status, body)
	}
	var mr MatchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Degraded || mr.DegradedReason != ReasonMatcherError {
		t.Fatalf("want degraded matcher_error, got %s", body)
	}
	if mr.Candidates == 0 {
		t.Fatalf("learned-path request found no candidates: %s", body)
	}

	// A sure-rule record still gets its match while the matcher is down.
	status, _, body = postMatch(t, ts.URL, l0Request)
	if status != http.StatusOK {
		t.Fatalf("sure-rule request during matcher outage = %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	var sureHit bool
	for _, m := range mr.Matches {
		if m.RightID == "r0" && m.Source == "rule:M1" {
			sureHit = true
		}
	}
	if !sureHit {
		t.Fatalf("matcher outage lost the sure-rule match: %s", body)
	}
}

// TestBreakerTripsAndRecoversUnderInjectedFaults is the end-to-end
// breaker lifecycle: injected matcher faults trip it open, requests
// degrade with breaker_open while it cools down, and after the faults
// are disarmed the half-open probe re-closes it.
func TestBreakerTripsAndRecoversUnderInjectedFaults(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	s, ts := newTestServer(t, Config{
		Breaker: BreakerConfig{Failures: 2, Cooldown: 50 * time.Millisecond},
	})
	fault.Enable("ml.predict", fault.Plan{})

	// Two faulted requests trip the breaker.
	for i := 0; i < 2; i++ {
		status, _, body := postMatch(t, ts.URL, l1Request)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
		var mr MatchResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatal(err)
		}
		if !mr.Degraded || mr.DegradedReason != ReasonMatcherError {
			t.Fatalf("request %d: want matcher_error, got %s", i, body)
		}
	}
	if st := s.breaker.State(); st != BreakerOpen {
		t.Fatalf("breaker after trip threshold = %v, want open", st)
	}

	// While open, the matcher is bypassed without even being called.
	before := fault.Count("ml.predict")
	status, _, body := postMatch(t, ts.URL, l1Request)
	if status != http.StatusOK {
		t.Fatalf("open-breaker request status %d: %s", status, body)
	}
	var mr MatchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Degraded || mr.DegradedReason != ReasonBreakerOpen {
		t.Fatalf("want breaker_open, got %s", body)
	}
	if fault.Count("ml.predict") != before {
		t.Fatal("open breaker still called the matcher")
	}

	// Recovery: disarm the fault, wait out the cooldown; the next
	// request is the half-open probe, succeeds, and re-closes.
	fault.Reset()
	time.Sleep(60 * time.Millisecond)
	status, _, body = postMatch(t, ts.URL, l1Request)
	if status != http.StatusOK {
		t.Fatalf("probe request status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Degraded {
		t.Fatalf("probe request should serve the learned path: %s", body)
	}
	if st := s.breaker.State(); st != BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", st)
	}
}

// TestOverloadSheds floods a 1-slot, no-queue server while the handler
// is slowed by an injected fault: the excess must come back 429 with a
// Retry-After hint, not pile up.
func TestOverloadSheds(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	_, ts := newTestServer(t, Config{
		Admission: AdmissionConfig{MaxInFlight: 1, MaxQueue: -1},
	})
	fault.Enable("serve.match", fault.Plan{Mode: fault.ModeSleep, Sleep: 150 * time.Millisecond})

	const burst = 6
	statuses := make([]int, burst)
	headers := make([]http.Header, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, h, _ := postMatch(t, ts.URL, l0Request)
			statuses[i], headers[i] = st, h
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if headers[i].Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After header")
			}
		default:
			t.Fatalf("unexpected status %d", st)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("burst of %d: ok=%d shed=%d, want both > 0", burst, ok, shed)
	}
}

func TestDrainFlow(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	s, ts := newTestServer(t, Config{DrainTimeout: time.Second})

	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}
	if st, _ := get("/healthz"); st != http.StatusOK {
		t.Fatalf("healthz = %d", st)
	}
	if st, _ := get("/readyz"); st != http.StatusOK {
		t.Fatalf("readyz = %d", st)
	}

	s.StartDrain() // what emserve does on SIGTERM
	s.StartDrain() // and again: idempotent

	// Readiness flips, liveness stays, matching is refused with 503.
	if st, _ := get("/readyz"); st != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", st)
	}
	if st, _ := get("/healthz"); st != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", st)
	}
	status, _, body := postMatch(t, ts.URL, l0Request)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("match while draining = %d (%s), want 503", status, body)
	}
	select {
	case <-s.Drained():
	case <-time.After(2 * time.Second):
		t.Fatal("drain never completed")
	}
}

func TestStatusEndpoint(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		if st, _, body := postMatch(t, ts.URL, l0Request); st != http.StatusOK {
			t.Fatalf("match = %d: %s", st, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusData
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.Breaker != "closed" || st.RightRows != 3 {
		t.Fatalf("status = %+v", st)
	}
	if st.Matcher == nil {
		t.Fatal("status missing matcher provenance")
	}
}

func TestMatchBadRequests(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed", "{nope", 400},
		{"unknown column", `{"record":{"Bogus":"x"}}`, 400},
		{"oversized", fmt.Sprintf(`{"record":{"Title":%q}}`, bytes.Repeat([]byte("a"), 1024)), 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := postMatch(t, ts.URL, tc.body)
			if status != tc.want {
				t.Fatalf("status = %d (%s), want %d", status, body, tc.want)
			}
		})
	}
}

// TestPerRequestDeadline proves the deadline propagates: a handler
// slowed far past the request's budget comes back 429/504, not a hang.
func TestPerRequestDeadline(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	_, ts := newTestServer(t, Config{RequestTimeout: 10 * time.Second})
	fault.Enable("serve.match", fault.Plan{Mode: fault.ModeSleep, Sleep: 300 * time.Millisecond})
	body := `{"record":{"Num":"2008-11111-11111"},"timeout_ms":50}`
	start := time.Now()
	status, _, data := postMatch(t, ts.URL, body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, data)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the request: took %v", elapsed)
	}
}
