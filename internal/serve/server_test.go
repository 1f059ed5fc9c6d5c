package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
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
	x, err := fs.VectorizeCtx(context.Background(), l, r, pairs)
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

// panicMatcher is a model that panics on every vector, the way a real one
// fails a request.
type panicMatcher struct{}

func (panicMatcher) Fit(*ml.Dataset) error { return nil }
func (panicMatcher) Predict([]float64) int { panic("poisoned vector") }
func (panicMatcher) Name() string          { return "panic" }

// breakMatcher swaps panicMatcher into s's deployment, so a server that
// answered with its fitted matcher fails from the next request on.
func breakMatcher(s *Server) {
	d := *s.deployment
	d.Matcher = panicMatcher{}
	s.deployment = &d
}

// wantStackOnlyInEvent holds a worker panic's 500 to where its stack
// goes: not into the client's body, but into the wide event's error,
// which the access log shows.
func wantStackOnlyInEvent(t *testing.T, log *syncBuffer, body []byte) {
	t.Helper()
	if bytes.Contains(body, []byte("goroutine ")) {
		t.Fatalf("the 500 ships the server's stack to the client: %s", body)
	}
	// The middleware records the event after the response is written.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		for _, ev := range log.events(t) {
			if msg, _ := ev["error"].(string); strings.Contains(msg, "goroutine ") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no errored access-log line keeps the worker's stack")
		}
	}
}

// failingBlocker is a blocker whose every run fails.
type failingBlocker struct{}

func (failingBlocker) Block(_ context.Context, _, _ *table.Table) (*block.CandidateSet, error) {
	return nil, errors.New("blocker down")
}
func (failingBlocker) Name() string { return "failing" }

// newTestServer spins up the service over the fixture workflow.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	w, l, r := fixtureWorkflow(t)
	return serveWorkflow(t, cfg, w, l, r)
}

// newRuleOnlyServer is newTestServer without a matcher: every answer is
// the rule-only one, degraded no_matcher.
func newRuleOnlyServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	w, l, r := fixtureWorkflow(t)
	w.Matcher = nil
	return serveWorkflow(t, cfg, w, l, r)
}

// serveWorkflow starts a Server over w behind an httptest server, both
// closed when the test ends.
func serveWorkflow(t testing.TB, cfg Config, w *workflow.Workflow, l, r *table.Table) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(context.Background(), cfg, w, l, r)
	if err != nil {
		t.Fatal(err)
	}
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
// that exercises the matcher's fault and deadline paths.
const l1Request = `{"record":{"RecordId":"q1","Title":"swamp dodder ecology management carrot"}}`

func TestMatchEndToEnd(t *testing.T) {
	leakcheck.Check(t)
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

// TestMatchFailsOnMatcherFault: a matcher that fails is no
// degradation. A request whose candidates reach it answers 500, and the
// error names the record by its position in the request; a request with
// no learned candidates never asks the matcher and answers as before.
func TestMatchFailsOnMatcherFault(t *testing.T) {
	leakcheck.Check(t)
	sink := &syncBuffer{}
	s, ts := newTestServer(t, Config{AccessLog: sink})
	breakMatcher(s) // every prediction panics
	status, _, body := postMatch(t, ts.URL, l1Request)
	if status != http.StatusInternalServerError {
		t.Fatalf("a failing matcher must answer 500, got %d: %s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "record 0: ") || !strings.Contains(er.Error, "poisoned vector") {
		t.Fatalf("the error does not name the record and the fault: %s", body)
	}
	wantStackOnlyInEvent(t, sink, body)

	// A sure-rule record, whose one candidate is already sure, still gets
	// its match.
	status, _, body = postMatch(t, ts.URL, l0Request)
	if status != http.StatusOK {
		t.Fatalf("sure-rule request during matcher outage = %d: %s", status, body)
	}
	var mr MatchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Degraded {
		t.Fatalf("a request the matcher never saw is degraded: %s", body)
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

// TestMatchTimeoutWeakensNeverFlips: the learned stage running out of
// its ML sub-budget (mlBudgetFrac of what is left of the request's) is
// the one learned-stage degradation: the answer weakens to its rules,
// over /v1/match and inside a batch, and never flips. A one-shot sleep at
// serve.predict, inside the sub-budget, outlasts the 2.1 s sub-budget of a
// 3 s request by 400 ms and ends 500 ms inside the request's budget;
// VectorizeCtx then finds its context done before it builds a vector.
func TestMatchTimeoutWeakensNeverFlips(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	_, ts := newTestServer(t, Config{})
	const budgetMS = 3000
	sleep := fault.Plan{Mode: fault.ModeSleep, Sleep: 2500 * time.Millisecond, OnCall: 1}
	records := []map[string]any{l0Record("q0"), l1Record("q1"), l2Record("q2")}
	var full BatchResponse
	postJSON(t, ts.URL+"/v1/match/batch", map[string]any{"records": records}, &full)
	learnedOf := func(mr *MatchResponse) (sure, learned []Match) {
		for _, m := range mr.Matches {
			if m.Source == "matcher" {
				learned = append(learned, m)
			} else {
				sure = append(sure, m)
			}
		}
		return sure, learned
	}
	if _, learned := learnedOf(full.Results[1]); len(learned) == 0 {
		t.Fatalf("q1's full answer has no learned match to lose: %+v", full.Results[1])
	}
	check := func(mode string, i int, got *MatchResponse) {
		t.Helper()
		if !got.Degraded || got.DegradedReason != ReasonMatcherSlow {
			t.Errorf("%s, record %d: degraded %v (%q), want %s", mode, i, got.Degraded, got.DegradedReason, ReasonMatcherSlow)
		}
		fullSure, fullLearned := learnedOf(full.Results[i])
		sure, learned := learnedOf(got)
		if !sameAnswer(sure, fullSure) {
			t.Errorf("%s, record %d: sure-rule matches %+v, the full answer's %+v", mode, i, sure, fullSure)
		}
		for _, m := range learned {
			if !slices.ContainsFunc(fullLearned, func(f Match) bool { return f.RightIndex == m.RightIndex }) {
				t.Errorf("%s, record %d: learned match %+v is not in the full answer %+v", mode, i, m, fullLearned)
			}
		}
	}

	fault.Enable("serve.predict", sleep)
	var mr MatchResponse
	postJSON(t, ts.URL+"/v1/match", map[string]any{"record": records[1], "timeout_ms": budgetMS}, &mr)
	check("/v1/match", 1, &mr)

	fault.Enable("serve.predict", sleep)
	var br BatchResponse
	postJSON(t, ts.URL+"/v1/match/batch", map[string]any{"records": records, "timeout_ms": budgetMS}, &br)
	for i, r := range br.Results {
		check("batch", i, r)
	}
}

// TestPredictPastRequestDeadlineTimesOut: the ML sub-budget is a share of
// the request's one deadline, never a deadline of its own. A one-shot
// sleep at serve.predict that outlasts the whole timeout_ms leaves no
// budget to answer the rule-only answer in, so the request answers 504,
// not a matcher_timeout answer, over /v1/match and inside a batch.
func TestPredictPastRequestDeadlineTimesOut(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	_, ts := newTestServer(t, Config{})
	const budgetMS = 100
	sleep := fault.Plan{Mode: fault.ModeSleep, Sleep: 3 * budgetMS * time.Millisecond, OnCall: 1}
	for _, c := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/match", map[string]any{"record": l1Record("q1"), "timeout_ms": budgetMS}},
		{"/v1/match/batch", map[string]any{"records": []map[string]any{l0Record("q0"), l1Record("q1")}, "timeout_ms": budgetMS}},
	} {
		fault.Enable("serve.predict", sleep)
		var answer map[string]any
		if status := postJSONStatus(t, ts.URL+c.path, c.body, &answer); status != http.StatusGatewayTimeout {
			t.Errorf("%s: serve.predict slept past the request's %d ms: status %d (%v), want 504", c.path, budgetMS, status, answer)
		}
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

// TestStatusEndpoint: /v1/status counts the records answered, the
// requests shed by reason and the /v1/match pipeline passes' latency.
func TestStatusEndpoint(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Admission: AdmissionConfig{MaxInFlight: 1, MaxQueue: -1}})
	for i := 0; i < 2; i++ {
		if st, _, body := postMatch(t, ts.URL, l0Request); st != http.StatusOK {
			t.Fatalf("match = %d: %s", st, body)
		}
	}
	// Shed: the test holds the only slot and nothing may wait.
	slot, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, _, body := postMatch(t, ts.URL, l0Request)
	slot.Release()
	if st != http.StatusTooManyRequests {
		t.Fatalf("match against a full gate = %d: %s", st, body)
	}
	s.StartDrain()
	if st, _, body := postMatch(t, ts.URL, l0Request); st != http.StatusServiceUnavailable {
		t.Fatalf("match while draining = %d: %s", st, body)
	}

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status StatusData
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Requests != 2 || status.RightRows != 3 {
		t.Fatalf("status = %+v", status)
	}
	if status.Matcher != "decision_tree" {
		t.Fatalf("status names matcher %q, want the served decision_tree", status.Matcher)
	}
	if status.Shed != (ShedCounts{QueueFull: 1, Draining: 1}) {
		t.Fatalf("status shed = %+v, want one queue_full and one draining", status.Shed)
	}
	if h := status.LatencyMS; h.Count != 2 || len(h.Counts) != len(latencyMSBuckets)+1 || h.Max <= 0 || h.Max > h.Sum {
		t.Fatalf("status latency_ms = %+v, want the two answered passes", h)
	}
}

func TestMatchBadRequests(t *testing.T) {
	leakcheck.Check(t)
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

// TestNewRejectsUnblockableDeployment: a spec whose blocker cannot run over
// the reference table builds, but its deployment must not start — New
// returns the blocker's error instead of a server that reports ready and
// answers every request degraded.
func TestNewRejectsUnblockableDeployment(t *testing.T) {
	l, r := fixtureTables(t)
	for _, tc := range []struct {
		name    string
		blocker workflow.BlockerSpec
		want    string
	}{
		{"right column missing", workflow.BlockerSpec{Type: "overlap", LeftCol: "Title", RightCol: "Nope", Tokenizer: "word", Threshold: 3}, `"Nope"`},
		{"no threshold", workflow.BlockerSpec{Type: "overlap", LeftCol: "Title", RightCol: "Title", Tokenizer: "word"}, "threshold must be >= 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := &workflow.Spec{Name: "unblockable", Blockers: []workflow.BlockerSpec{tc.blocker}}
			wf, err := spec.Build(l, r, nil)
			if err != nil {
				t.Fatalf("fixture: the spec must build, it is its deployment that cannot block: %v", err)
			}
			s, err := New(context.Background(), Config{}, wf, l, r)
			if err == nil {
				resp, merr := s.matchOne(context.Background(), l.Row(0), false)
				t.Fatalf("New started a deployment that cannot block; a request then answers %+v, %v", resp, merr)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New: %v, want the blocker's error (%s)", err, tc.want)
			}
		})
	}
}
