package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"emgo/internal/leakcheck"
	"emgo/internal/table"
)

// postBatch sends one batch request and returns the raw envelope.
func postBatch(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/match/batch", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// fixture request records in map form (the batch wire shape).
func l0Record(id string) map[string]any {
	return map[string]any{"RecordId": id, "Num": "2008-11111-11111", "Title": "corn fungicide guidelines north central"}
}

func l1Record(id string) map[string]any {
	return map[string]any{"RecordId": id, "Title": "swamp dodder ecology management carrot"}
}

func l2Record(id string) map[string]any {
	return map[string]any{"RecordId": id, "Num": "WIS00001", "Title": "dairy cattle genetics study wisconsin"}
}

// TestBatchMatchesSingles is the amortization contract: a batch must
// answer every record exactly as the single-record endpoint would —
// same matches, same provenance, same candidate accounting — while
// holding only one admission slot.
func TestBatchMatchesSingles(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})

	records := []map[string]any{l0Record("q0"), l1Record("q1"), l2Record("q2")}
	req, _ := json.Marshal(map[string]any{"records": records})
	status, body := postBatch(t, ts.URL, string(req))
	if status != http.StatusOK {
		t.Fatalf("batch status = %d: %s", status, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Count != len(records) || len(br.Results) != len(records) {
		t.Fatalf("batch answered %d/%d results: %s", len(br.Results), len(records), body)
	}
	if br.Degraded != 0 {
		t.Fatalf("healthy batch degraded %d records: %s", br.Degraded, body)
	}

	for i, rec := range records {
		single, _ := json.Marshal(map[string]any{"record": rec})
		st, _, data := postMatch(t, ts.URL, string(single))
		if st != http.StatusOK {
			t.Fatalf("single %d status = %d: %s", i, st, data)
		}
		var mr MatchResponse
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatal(err)
		}
		got, want := br.Results[i], &mr
		gm, _ := json.Marshal(got.Matches)
		wm, _ := json.Marshal(want.Matches)
		if !bytes.Equal(gm, wm) ||
			got.Degraded != want.Degraded ||
			got.Candidates != want.Candidates ||
			got.Vetoed != want.Vetoed {
			t.Fatalf("record %d: batch answer diverges from single:\nbatch:  %+v\nsingle: %+v", i, got, want)
		}
	}

	// Spot-check semantics: q0 hits the sure rule, q1 the matcher, q2 is
	// vetoed by the negative rule.
	if len(br.Results[0].Matches) == 0 || br.Results[0].Matches[0].Source != "rule:M1" {
		t.Fatalf("q0 missing sure-rule match: %+v", br.Results[0])
	}
	if len(br.Results[1].Matches) == 0 || br.Results[1].Matches[0].Source != "matcher" {
		t.Fatalf("q1 missing learned match: %+v", br.Results[1])
	}
	if br.Results[2].Vetoed == 0 {
		t.Fatalf("q2 should be vetoed: %+v", br.Results[2])
	}
}

// TestBatchFailsOnMatcherFault: a matcher that fails fails the whole
// batch — 500, no partial answer — and the error names the record whose
// pair it failed on by its position in the batch (q1, the one record
// with a learned candidate).
func TestBatchFailsOnMatcherFault(t *testing.T) {
	leakcheck.Check(t)
	sink := &syncBuffer{}
	s, ts := newTestServer(t, Config{AccessLog: sink})
	breakMatcher(s)

	req, _ := json.Marshal(map[string]any{"records": []map[string]any{l0Record("q0"), l1Record("q1")}})
	status, body := postBatch(t, ts.URL, string(req))
	if status != http.StatusInternalServerError {
		t.Fatalf("a failing matcher must fail the batch with 500, got %d: %s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "record 1: ") || !strings.Contains(er.Error, "poisoned vector") {
		t.Fatalf("the error does not name record 1 and the fault: %s", body)
	}
	wantStackOnlyInEvent(t, sink, body)
}

// TestBatchRejections: the decoder's caps hold over HTTP — oversized
// bodies, over-cap record counts, and malformed records are 4xx, and a
// draining server refuses batches with 503.
func TestBatchRejections(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{MaxBatchRecords: 2, maxBatchBodyBytes: 2048})

	over, _ := json.Marshal(map[string]any{"records": []map[string]any{
		l0Record("q0"), l1Record("q1"), l2Record("q2"),
	}})
	cases := []struct {
		name string
		body string
		want int
		says string // a part of the error text, if any
	}{
		{"malformed", `{nope`, 400, ""},
		{"empty records", `{"records":[]}`, 400, ""},
		{"too many records", string(over), 413, "cap is 2 (match a whole table offline: emmatch over the deployed spec)"},
		{"oversized body", fmt.Sprintf(`{"records":[{"Title":%q}]}`, bytes.Repeat([]byte("a"), 4096)), 413, ""},
		{"bad record", `{"records":[{"Bogus":"x"}]}`, 400, ""},
		{"negative timeout", `{"records":[{"Title":"x"}],"timeout_ms":-1}`, 400, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postBatch(t, ts.URL, tc.body)
			if status != tc.want {
				t.Fatalf("status = %d (%s), want %d", status, body, tc.want)
			}
			if !strings.Contains(string(body), tc.says) {
				t.Fatalf("error = %s, want it to say %q", body, tc.says)
			}
		})
	}
}

// A job is batch calls: a table too large for one call goes to
// /v1/match/batch in calls of at most MaxBatchRecords records, or is
// matched offline by emmatch over the deployed spec. No /v1/jobs route
// is mounted.

// jobRouteStatus sends one request to a job route and returns its status.
func jobRouteStatus(t *testing.T, method, url, body string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestJobEndpointsDisabled: every server answers a job submission, a
// status poll and a results fetch with 404 — never a panic or a silent
// in-memory job.
func TestJobEndpointsDisabled(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]any{"records": []map[string]any{l0Record("q0"), l1Record("q1")}})
	if code := jobRouteStatus(t, http.MethodPost, ts.URL+"/v1/jobs", string(body)); code != http.StatusNotFound {
		t.Fatalf("job submission = %d, want 404", code)
	}
	for _, path := range []string{"/v1/jobs/jx", "/v1/jobs/jx/results"} {
		if code := jobRouteStatus(t, http.MethodGet, ts.URL+path, ""); code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, code)
		}
	}
}

// TestJobBadRequests: a job submission's records, sent as a batch call,
// are refused for what a submission was refused for, with a typed status
// and an error that says why; a shard size is no field of a batch; and
// job lookups 404 cleanly.
func TestJobBadRequests(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{MaxBatchRecords: 4})

	five, _ := json.Marshal(map[string]any{"records": []map[string]any{
		l0Record("q0"), l1Record("q1"), l2Record("q2"), l0Record("q3"), l1Record("q4"),
	}})
	cases := []struct {
		name string
		body string
		want int
		says string // a part of the error text
	}{
		{"malformed", `{nope`, 400, "parse batch request JSON"},
		{"empty records", `{"records":[]}`, 400, `needs a non-empty \"records\" array`},
		{"bad column", `{"records":[{"Bogus":"x"}]}`, 400, `record 0: unknown column \"Bogus\"`},
		{"trailing data", `{"records":[{"Title":"x"}]}extra`, 400, "trailing data"},
		{"negative shard size", `{"records":[{"Title":"x"}],"shard_size":-1}`, 400, `unknown field \"shard_size\"`},
		{"over record cap", string(five), 413, "cap is 4 (match a whole table offline: emmatch over the deployed spec)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postBatch(t, ts.URL, tc.body)
			if status != tc.want {
				t.Fatalf("status = %d (%s), want %d", status, body, tc.want)
			}
			if !strings.Contains(string(body), tc.says) {
				t.Fatalf("error = %s, want it to say %q", body, tc.says)
			}
		})
	}
	if code := jobRouteStatus(t, http.MethodGet, ts.URL+"/v1/jobs/jdeadbeef", ""); code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", code)
	}
	if code := jobRouteStatus(t, http.MethodGet, ts.URL+"/v1/jobs/jdeadbeef/results", ""); code != http.StatusNotFound {
		t.Fatalf("unknown job results = %d, want 404", code)
	}
}

// TestConcurrentBatchesShareRuleIndex hits one server from 8 goroutines
// with overlapping batches: every request reads the sure-rule index
// bound at start-up, and every record must get the answer it gets alone
// (run under -race -count=10).
func TestConcurrentBatchesShareRuleIndex(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})

	shapes := []func(string) map[string]any{l0Record, l1Record, l2Record}
	want := make([]string, len(shapes))
	for k, shape := range shapes {
		single, _ := json.Marshal(map[string]any{"record": shape("ref")})
		st, _, data := postMatch(t, ts.URL, string(single))
		if st != http.StatusOK {
			t.Fatalf("reference single %d status = %d: %s", k, st, data)
		}
		var mr MatchResponse
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatal(err)
		}
		m, _ := json.Marshal(mr.Matches)
		want[k] = string(m)
	}
	if !strings.Contains(want[0], "rule:M1") {
		t.Fatalf("fixture: l0 should match through the sure rule, got %s", want[0])
	}

	const goroutines, rounds, size = 8, 5, 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Batches overlap: every goroutine sends all three record
				// shapes, rotated by its number.
				kinds := make([]int, size)
				records := make([]map[string]any, size)
				for i := range records {
					kinds[i] = (g + round + i) % len(shapes)
					records[i] = shapes[kinds[i]](fmt.Sprintf("g%d-r%d-%d", g, round, i))
				}
				req, _ := json.Marshal(map[string]any{"records": records})
				resp, err := http.Post(ts.URL+"/v1/match/batch", "application/json", bytes.NewReader(req))
				if err != nil {
					t.Error(err)
					return
				}
				var br BatchResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(br.Results) != size {
					t.Errorf("goroutine %d round %d: status %d, %d results, err %v", g, round, resp.StatusCode, len(br.Results), err)
					return
				}
				for i, res := range br.Results {
					if m, _ := json.Marshal(res.Matches); string(m) != want[kinds[i]] {
						t.Errorf("goroutine %d round %d record %d: matches %s, alone it gets %s", g, round, i, m, want[kinds[i]])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSureStageHonoursDeadDeadline: a request whose deadline is already
// gone stops in the sure-rule stage with the context's error — it is
// not answered from the index as if it were on time.
func TestSureStageHonoursDeadDeadline(t *testing.T) {
	leakcheck.Check(t)
	s, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	left := table.New("request", s.left.Schema())
	left.MustAppend(s.left.Row(0))
	if _, _, _, err := s.matchSet(ctx, left, false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("matchSet past its deadline = %v, want context.DeadlineExceeded", err)
	}
}
