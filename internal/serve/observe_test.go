package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"emgo/internal/fault"
	"emgo/internal/leakcheck"
	"emgo/internal/obs"
	"emgo/internal/obs/tail"
)

// syncBuffer is a goroutine-safe log sink. The middleware emits the
// wide event after the handler returns, which can land after the client
// already read the response — readers must poll through waitEvents.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// events parses the buffered JSON lines into generic documents.
func (b *syncBuffer) events(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(b.buf.String(), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("wide event line is not JSON: %v\n%s", err, line)
		}
		out = append(out, doc)
	}
	return out
}

// waitEvents polls until at least n wide events are buffered.
func (b *syncBuffer) waitEvents(t *testing.T, n int) []map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		evs := b.events(t)
		if len(evs) >= n || time.Now().After(deadline) {
			return evs
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// eventFor finds the wide event carrying the given request ID.
func eventFor(evs []map[string]any, id string) map[string]any {
	for _, ev := range evs {
		if ev["request_id"] == id {
			return ev
		}
	}
	return nil
}

func TestRequestIDMintedSanitizedAndEchoed(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})

	send := func(clientID string) (string, int) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/match", strings.NewReader(l0Request))
		if err != nil {
			t.Fatal(err)
		}
		if clientID != "" {
			req.Header.Set("X-Request-Id", clientID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-Id"), resp.StatusCode
	}

	// No client ID: the server mints one.
	id, st := send("")
	if st != http.StatusOK {
		t.Fatalf("status = %d", st)
	}
	if len(id) != 16 {
		t.Fatalf("minted request ID %q, want 16 hex chars", id)
	}

	// A well-formed client ID is propagated verbatim.
	if id, _ := send("client-abc_123.456"); id != "client-abc_123.456" {
		t.Fatalf("clean client ID not echoed: got %q", id)
	}

	// Hostile IDs (chars outside the safe set, oversized) are replaced,
	// never echoed back.
	if id, _ := send(`evil id"{}`); id == `evil id"{}` || id == "" {
		t.Fatalf("unsanitized ID echoed: %q", id)
	}
	long := strings.Repeat("a", obs.MaxRequestIDLen+1)
	if id, _ := send(long); id == long || len(id) > obs.MaxRequestIDLen {
		t.Fatalf("oversized ID echoed: %q", id)
	}
}

func TestRequestIDEchoedOnShedAndDraining(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	s, ts := newTestServer(t, Config{
		Admission: AdmissionConfig{MaxInFlight: 1, MaxQueue: -1},
	})
	fault.Enable("serve.match", fault.Plan{Mode: fault.ModeSleep, Sleep: 150 * time.Millisecond})

	const burst = 6
	ids := make([]string, burst)
	statuses := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/match", strings.NewReader(l0Request))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("X-Request-Id", fmt.Sprintf("burst-%d", i))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			ids[i], statuses[i] = resp.Header.Get("X-Request-Id"), resp.StatusCode
		}(i)
	}
	wg.Wait()

	var shed bool
	for i, st := range statuses {
		if ids[i] != fmt.Sprintf("burst-%d", i) {
			t.Fatalf("request %d (status %d): X-Request-Id = %q, want burst-%d", i, st, ids[i], i)
		}
		if st == http.StatusTooManyRequests {
			shed = true
		}
	}
	if !shed {
		t.Fatal("burst produced no 429 — shed echo path not exercised")
	}

	// Draining answers 503 and still echoes the ID.
	s.StartDrain()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/match", strings.NewReader(l0Request))
	req.Header.Set("X-Request-Id", "drain-probe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") != "drain-probe" {
		t.Fatalf("503 lost the request ID: %q", resp.Header.Get("X-Request-Id"))
	}
}

// TestDrainingRefusalsSayWhy: every route that takes on work answers a
// draining server's 503 through one step, so each refusal carries
// Retry-After and its wide event names the reason — a 503 with no
// admission field reads as an outage, not as policy.
func TestDrainingRefusalsSayWhy(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	sink := &syncBuffer{}
	cfg := jobConfig(t.TempDir())
	cfg.AccessLog = sink
	s, ts := newTestServer(t, cfg)
	st := submitJob(t, ts.URL, jobPayload(2))
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)
	before := len(sink.waitEvents(t, 2))

	s.StartDrain()
	refused := []struct{ id, method, path, body string }{
		{"drain-match", http.MethodPost, "/v1/match", l0Request},
		{"drain-batch", http.MethodPost, "/v1/match/batch", jobPayload(2)},
		{"drain-submit", http.MethodPost, "/v1/jobs", jobPayload(4)},
		{"drain-results", http.MethodGet, "/v1/jobs/" + st.ID + "/results", ""},
	}
	for _, rq := range refused {
		req, err := http.NewRequest(rq.method, ts.URL+rq.path, strings.NewReader(rq.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", rq.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s while draining = %d (Retry-After %q), want 503 with a hint",
				rq.method, rq.path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	evs := sink.waitEvents(t, before+len(refused))
	for _, rq := range refused {
		ev := eventFor(evs, rq.id)
		if ev == nil {
			t.Fatalf("no wide event for %s", rq.id)
		}
		if ev["admission"] != AdmissionShedDraining || ev["outcome"] != obs.OutcomeDraining {
			t.Errorf("%s %s: admission=%v outcome=%v, want %s/%s",
				rq.method, rq.path, ev["admission"], ev["outcome"], AdmissionShedDraining, obs.OutcomeDraining)
		}
	}
}

func TestWideEventPerRequest(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	sink := &syncBuffer{}
	_, ts := newTestServer(t, Config{AccessLog: sink})

	post := func(path, id, body string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if st := post("/v1/match", "wide-ok", l0Request); st != http.StatusOK {
		t.Fatalf("match status = %d", st)
	}
	if st := post("/v1/match", "wide-bad", `{`); st != http.StatusBadRequest {
		t.Fatalf("bad request status = %d", st)
	}
	if st := post("/v1/match/batch", "wide-batch",
		`{"records":[`+strings.TrimPrefix(strings.TrimSuffix(l0Request, "}"), `{"record":`)+`]}`); st != http.StatusOK {
		t.Fatalf("batch status = %d", st)
	}

	evs := sink.waitEvents(t, 3)
	if len(evs) != 3 {
		t.Fatalf("got %d wide events, want exactly 3 (one per request):\n%v", len(evs), evs)
	}

	ok := eventFor(evs, "wide-ok")
	if ok == nil {
		t.Fatalf("no wide event for the ok request: %v", evs)
	}
	if ok["route"] != "/v1/match" || ok["outcome"] != obs.OutcomeOK || ok["status"] != float64(200) {
		t.Fatalf("ok event wrong: %v", ok)
	}
	if ok["admission"] != AdmissionAdmitted {
		t.Fatalf("ok event admission = %v, want %q", ok["admission"], AdmissionAdmitted)
	}
	if _, has := ok["duration_ms"]; !has {
		t.Fatalf("ok event has no duration: %v", ok)
	}
	stages, _ := ok["stages"].(map[string]any)
	if _, has := stages["serve.match"]; !has {
		t.Fatalf("ok event stages missing serve.match: %v", ok)
	}
	if ok["bytes_in"] == nil || ok["bytes_out"] == nil {
		t.Fatalf("ok event missing body sizes: %v", ok)
	}

	bad := eventFor(evs, "wide-bad")
	if bad == nil || bad["outcome"] != obs.OutcomeBadRequest || bad["status"] != float64(400) {
		t.Fatalf("bad-request event wrong: %v", bad)
	}
	batch := eventFor(evs, "wide-batch")
	if batch == nil || batch["route"] != "/v1/match/batch" || batch["records"] != float64(1) {
		t.Fatalf("batch event wrong: %v", batch)
	}
}

func TestWideEventSamplingKeepsErrors(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	sink := &syncBuffer{}
	_, ts := newTestServer(t, Config{AccessLog: sink, AccessSampleN: 10})

	for i := 0; i < 10; i++ {
		if st, _, _ := postMatch(t, ts.URL, l0Request); st != http.StatusOK {
			t.Fatalf("status = %d", st)
		}
	}
	// Every serve.match call now errors: a 500 must always log.
	fault.Enable("serve.match", fault.Plan{})
	if st, _, _ := postMatch(t, ts.URL, l0Request); st != http.StatusInternalServerError {
		t.Fatalf("faulted status = %d, want 500", st)
	}

	evs := sink.waitEvents(t, 2)
	var okCount, errCount int
	for _, ev := range evs {
		switch ev["outcome"] {
		case obs.OutcomeOK:
			okCount++
		case obs.OutcomeError:
			errCount++
			if ev["error"] == nil {
				t.Fatalf("error event carries no error message: %v", ev)
			}
		}
	}
	if okCount != 1 {
		t.Fatalf("sampled ok events = %d, want 1 of 10 at sampleN=10", okCount)
	}
	if errCount != 1 {
		t.Fatalf("error events = %d, want 1 (errors bypass sampling)", errCount)
	}
}

func TestTailCapturesSlowAndErrored(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	s, ts := newTestServer(t, Config{TailN: 4})

	// A healthy request lands in the slowest set (the heap is empty, so
	// anything qualifies), then an injected failure lands in errored.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/match", strings.NewReader(l0Request))
	req.Header.Set("X-Request-Id", "tail-slow")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	fault.Enable("serve.match", fault.Plan{})
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/match", strings.NewReader(l0Request))
	req.Header.Set("X-Request-Id", "tail-err")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fault.Reset()

	// The middleware records the entry after the response is written;
	// poll the snapshot rather than racing it.
	var snap tail.Snapshot
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap = s.TailSnapshot()
		if (len(snap.Slowest) > 0 && len(snap.Errored) > 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	find := func(entries []*tail.Entry, id string) *tail.Entry {
		for _, e := range entries {
			if e.Event != nil && e.Event.RequestID == id {
				return e
			}
		}
		return nil
	}
	slow := find(snap.Slowest, "tail-slow")
	if slow == nil {
		t.Fatalf("healthy request missing from slowest set: %+v", snap)
	}
	if slow.Trace == nil || len(slow.Trace.Children) == 0 {
		t.Fatalf("tail entry carries no span tree: %+v", slow)
	}
	var hasMatchSpan bool
	for _, c := range slow.Trace.Children {
		if c.Name == "serve.match" {
			hasMatchSpan = true
		}
	}
	if !hasMatchSpan {
		t.Fatalf("span tree has no serve.match child: %+v", slow.Trace)
	}
	errEnt := find(snap.Errored, "tail-err")
	if errEnt == nil {
		t.Fatalf("errored request missing from errored set: %+v", snap)
	}
	if errEnt.Event.Outcome != obs.OutcomeError {
		t.Fatalf("errored entry outcome = %q", errEnt.Event.Outcome)
	}

	// The same snapshot is served over HTTP at /debug/tail.
	hresp, err := http.Get(ts.URL + "/debug/tail")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var doc tail.Snapshot
	if err := json.NewDecoder(hresp.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/tail is not JSON: %v", err)
	}
	if len(doc.Slowest) == 0 || len(doc.Errored) == 0 {
		t.Fatalf("/debug/tail snapshot empty: %+v", doc)
	}
}

func TestStatusCarriesSLOReport(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	if st, _, _ := postMatch(t, ts.URL, l0Request); st != http.StatusOK {
		t.Fatalf("status = %d", st)
	}
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var sd StatusData
	err = json.NewDecoder(resp.Body).Decode(&sd)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sd.SLO == nil || len(sd.SLO.Objectives) == 0 {
		t.Fatal("/v1/status carries no SLO report")
	}
	if sd.SLO.Breached {
		t.Fatalf("healthy traffic reads as breached: %+v", sd.SLO)
	}
	var seen int
	for _, o := range sd.SLO.Objectives {
		seen += int(o.SlowTotal)
	}
	if seen == 0 {
		t.Fatalf("SLO tracker observed no requests: %+v", sd.SLO)
	}
}

func TestJobEventsCarryRequestAndJobIdentity(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	sink := &syncBuffer{}
	_, ts := newTestServer(t, Config{
		AccessLog: sink,
		Jobs:      JobConfig{Dir: t.TempDir(), ShardSize: 1},
	})

	body := `{"records":[` + strings.TrimPrefix(strings.TrimSuffix(l0Request, "}"), `{"record":`) + `]}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("X-Request-Id", "job-origin")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d err %v", resp.StatusCode, err)
	}
	if resp.Header.Get("X-Request-Id") != "job-origin" {
		t.Fatalf("submit lost the request ID: %q", resp.Header.Get("X-Request-Id"))
	}

	// Poll until the job finishes, then fetch results — the fetch must
	// echo its own request ID too.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		err = json.NewDecoder(r2.Body).Decode(&cur)
		r2.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == JobCompleted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/results", nil)
	req.Header.Set("X-Request-Id", "job-fetch")
	r3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", r3.StatusCode)
	}
	if r3.Header.Get("X-Request-Id") != "job-fetch" {
		t.Fatalf("results fetch lost the request ID: %q", r3.Header.Get("X-Request-Id"))
	}

	// The submit and fetch events carry the job ID; the job's own wide
	// event (route "job") carries the submitter's request ID as origin.
	// The status polls log events too and a request's event is written
	// after its response, so wait for the fetch's event, not for a count.
	evs := sink.waitEvents(t, 3)
	for deadline := time.Now().Add(2 * time.Second); eventFor(evs, "job-fetch") == nil && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		evs = sink.events(t)
	}
	submit := eventFor(evs, "job-origin")
	if submit == nil || submit["job_id"] != st.ID {
		t.Fatalf("submit event wrong: %v", submit)
	}
	fetch := eventFor(evs, "job-fetch")
	if fetch == nil || fetch["job_id"] != st.ID {
		t.Fatalf("fetch event wrong: %v", fetch)
	}
	var jobEv map[string]any
	for _, ev := range evs {
		if ev["route"] == "job" {
			jobEv = ev
		}
	}
	if jobEv == nil {
		t.Fatalf("no job-tier wide event emitted: %v", evs)
	}
	if jobEv["request_id"] != "job-origin" || jobEv["job_id"] != st.ID {
		t.Fatalf("job event does not tie back to its origin: %v", jobEv)
	}
}
