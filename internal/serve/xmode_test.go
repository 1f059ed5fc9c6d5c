package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"emgo/internal/leakcheck"
	"emgo/internal/table"
	"emgo/internal/tokenize"
	"emgo/internal/workflow"
)

// TestOfflineEqualsOnlineModes: the three execution modes give one answer.
// On one seeded slice, per left row, the offline Workflow.RunCtx's Final
// pairs are what POST /v1/match answers for that record and what its entry
// in a POST /v1/match/batch answer says — the same right rows, in the same
// order, and between the two online modes from the same source (run by
// make race-cpu at one and two CPUs).
func TestOfflineEqualsOnlineModes(t *testing.T) {
	leakcheck.Check(t)
	w, l, r := paperWorkflowAt(t, tokenize.Word{}, 0.15)

	// Offline: the right rows of each left row's final matches, sure
	// matches first, both in (A, B) order — the order a response lists.
	res, err := w.RunCtx(context.Background(), l, r, workflow.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	offline := make([][]int, l.Len())
	for _, p := range res.Sure.Sorted() {
		offline[p.A] = append(offline[p.A], p.B)
	}
	learned := 0
	for _, p := range res.Final.Sorted() {
		if !res.Sure.Contains(p) {
			offline[p.A] = append(offline[p.A], p.B)
			learned++
		}
	}
	if res.Sure.Len() == 0 || learned == 0 {
		t.Fatalf("fixture: %d sure and %d learned matches; the comparison needs both kinds", res.Sure.Len(), learned)
	}

	t.Logf("%d left x %d right rows, %d sure + %d learned matches", l.Len(), r.Len(), res.Sure.Len(), learned)
	s, err := New(context.Background(), Config{}, w, l, r)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	records := make([]map[string]any, l.Len())
	for i := range records {
		records[i] = rowRecord(l, i)
	}
	post := func(path string, body, into any) {
		t.Helper()
		postJSON(t, ts.URL+path, body, into)
	}

	single := make([][]Match, l.Len())
	for i, rec := range records {
		var mr MatchResponse
		post("/v1/match", map[string]any{"record": rec}, &mr)
		if mr.Degraded {
			t.Fatalf("record %d answered degraded (%s)", i, mr.DegradedReason)
		}
		single[i] = mr.Matches
	}
	var batch [][]Match
	for lo := 0; lo < len(records); lo += DefaultMaxBatchRecords {
		var br BatchResponse
		post("/v1/match/batch", map[string]any{"records": records[lo:min(lo+DefaultMaxBatchRecords, len(records))]}, &br)
		for _, mr := range br.Results {
			batch = append(batch, mr.Matches)
		}
	}
	if len(batch) != l.Len() {
		t.Fatalf("%d batch answers for %d records", len(batch), l.Len())
	}

	for i := range records {
		rights := make([]int, len(single[i]))
		for k, m := range single[i] {
			rights[k] = m.RightIndex
		}
		if fmt.Sprint(rights) != fmt.Sprint(offline[i]) {
			t.Errorf("record %d: /v1/match answers right rows %v, offline RunCtx %v", i, rights, offline[i])
		}
		if !sameAnswer(single[i], batch[i]) {
			t.Errorf("record %d: /v1/match %+v, in a batch %+v", i, single[i], batch[i])
		}
	}
}

// postJSON posts body to url and decodes the 200 answer into into.
func postJSON(t *testing.T, url string, body, into any) {
	t.Helper()
	if status := postJSONStatus(t, url, body, into); status != http.StatusOK {
		t.Fatalf("POST %s = %d", url, status)
	}
}

// postJSONStatus posts body as JSON and returns the answer's status,
// decoding a 200 answer into into.
func postJSONStatus(t *testing.T, url string, body, into any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// sameAnswer: the same right rows from the same source, in the same order.
func sameAnswer(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].RightIndex != b[k].RightIndex || a[k].Source != b[k].Source {
			return false
		}
	}
	return true
}

// TestAnswersInvariantUnderBatching: how records are grouped on their
// way in does not reach their answers. Against each record's /v1/match
// answer: the same records, permuted by a seeded shuffle so no record
// keeps its neighbours, re-cut into batches of 1, 7 and 32, and sent as
// one batch of every record — one matchSet pass over the whole left
// table (make race-cpu runs this at 1, 2 and 4 CPUs).
func TestAnswersInvariantUnderBatching(t *testing.T) {
	leakcheck.Check(t)
	w, l, r := paperWorkflowAt(t, tokenize.Word{}, 0.15)
	records := make([]map[string]any, l.Len())
	for i := range records {
		records[i] = rowRecord(l, i)
	}
	s, err := New(context.Background(), Config{MaxBatchRecords: l.Len()}, w, l, r)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	url := ts.URL

	single := make([][]Match, len(records))
	matched := 0
	for i, rec := range records {
		var mr MatchResponse
		postJSON(t, url+"/v1/match", map[string]any{"record": rec}, &mr)
		single[i] = mr.Matches
		matched += min(len(mr.Matches), 1)
	}
	if matched == 0 {
		t.Fatal("fixture: no record has a match")
	}

	perm := rand.New(rand.NewSource(7)).Perm(len(records))
	for _, size := range []int{1, 7, 32, len(records)} {
		for lo := 0; lo < len(perm); lo += size {
			cut := perm[lo:min(lo+size, len(perm))]
			batch := make([]map[string]any, len(cut))
			for k, i := range cut {
				batch[k] = records[i]
			}
			var br BatchResponse
			postJSON(t, url+"/v1/match/batch", map[string]any{"records": batch}, &br)
			if len(br.Results) != len(cut) {
				t.Fatalf("batch of %d answered %d records", len(cut), len(br.Results))
			}
			for k, i := range cut {
				if !sameAnswer(single[i], br.Results[k].Matches) {
					t.Errorf("record %d: /v1/match %+v, at %d in a shuffled batch of %d %+v", i, single[i], k, size, br.Results[k].Matches)
				}
			}
		}
	}
}

// TestDegradedAnswersWeakenNeverFlip: an answer given without the learned
// matcher is the full answer made weaker, never a different one, and a
// stage that fails fails instead of answering. With no matcher deployed,
// every record's answer over /v1/match and inside a batch keeps exactly
// the full answer's sure-rule matches, adds no learned match the full
// answer lacks, and says why whenever it is short of one. With a matcher
// that panics, or a blocker that fails every run, each mode fails —
// a 500, a failed batch — and whatever it still answers is the full
// answer itself (make race-cpu
// runs this at 1, 2 and 4 CPUs). TestMatchTimeoutWeakensNeverFlips holds
// the other degradation, the ML sub-budget running out.
func TestDegradedAnswersWeakenNeverFlip(t *testing.T) {
	leakcheck.Check(t)
	w, l, r := paperWorkflowAt(t, tokenize.Word{}, 0.15)
	records := make([]map[string]any, l.Len())
	for i := range records {
		records[i] = rowRecord(l, i)
	}

	type answer struct {
		matches []Match
		reason  string // "" = not degraded
		failed  bool   // the request or batch failed: no answer
	}
	answerOf := func(matches []Match, degraded bool, reason string) answer {
		if degraded && reason == "" {
			t.Errorf("a degraded answer carries no degraded_reason: %+v", matches)
		}
		if !degraded {
			reason = ""
		}
		return answer{matches: matches, reason: reason}
	}
	// post decodes a 200 answer into into and reports it; a 500 is a
	// failed pass, anything else fails the test.
	post := func(url string, body, into any) (ok bool) {
		status := postJSONStatus(t, url, body, into)
		if status != http.StatusOK && status != http.StatusInternalServerError {
			t.Fatalf("POST %s = %d", url, status)
		}
		return status == http.StatusOK
	}
	// collect asks one server for every record two ways; breakMatcher
	// first, when asked.
	collect := func(wf *workflow.Workflow, poisoned bool) map[string][]answer {
		s, err := New(context.Background(), Config{}, wf, l, r)
		if err != nil {
			t.Fatal(err)
		}
		if poisoned {
			breakMatcher(s)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		out := map[string][]answer{}
		for _, rec := range records {
			var mr MatchResponse
			a := answer{failed: true}
			if post(ts.URL+"/v1/match", map[string]any{"record": rec}, &mr) {
				a = answerOf(mr.Matches, mr.Degraded, mr.DegradedReason)
			}
			out["/v1/match"] = append(out["/v1/match"], a)
		}
		for lo := 0; lo < len(records); lo += DefaultMaxBatchRecords {
			batch := records[lo:min(lo+DefaultMaxBatchRecords, len(records))]
			var br BatchResponse
			if !post(ts.URL+"/v1/match/batch", map[string]any{"records": batch}, &br) {
				br.Results = make([]*MatchResponse, len(batch))
			}
			for _, mr := range br.Results {
				a := answer{failed: true}
				if mr != nil {
					a = answerOf(mr.Matches, mr.Degraded, mr.DegradedReason)
				}
				out["batch"] = append(out["batch"], a)
			}
		}
		return out
	}
	// split cuts an answer into its sure-rule matches and its learned ones.
	split := func(ms []Match) (sure, learned []Match) {
		for _, m := range ms {
			if m.Source == "matcher" {
				learned = append(learned, m)
			} else {
				sure = append(sure, m)
			}
		}
		return sure, learned
	}

	full := collect(w, false)["/v1/match"]
	ruleOnly := *w
	ruleOnly.Matcher = nil
	blockerDown := *w
	blockerDown.Blockers = append(slices.Clip(w.Blockers), failingBlocker{})
	cases := []struct {
		name     string
		wf       *workflow.Workflow
		poisoned bool // the matcher panics on every vector
		fails    bool // every mode must fail, and answer nothing else
	}{
		{"no matcher", &ruleOnly, false, false},
		{"matcher panics", w, true, true},
		{"blocker fails", &blockerDown, false, true},
	}
	for _, tc := range cases {
		got := collect(tc.wf, tc.poisoned)
		for mode, answers := range got {
			if len(answers) != len(records) {
				t.Fatalf("%s, %s: %d answers for %d records", tc.name, mode, len(answers), len(records))
			}
			weakened, failed := 0, 0
			for i, a := range answers {
				if a.failed {
					failed++
					continue
				}
				if tc.fails {
					if a.reason != "" || !sameAnswer(a.matches, full[i].matches) {
						t.Errorf("%s, %s, record %d: answered %+v (degraded_reason %q), not the full answer %+v", tc.name, mode, i, a.matches, a.reason, full[i].matches)
					}
					continue
				}
				fullSure, fullLearned := split(full[i].matches)
				sure, learned := split(a.matches)
				if !sameAnswer(fullSure, sure) {
					t.Errorf("%s, %s, record %d: sure-rule matches %+v, the full answer's %+v", tc.name, mode, i, sure, fullSure)
				}
				for _, m := range learned {
					if !slices.ContainsFunc(fullLearned, func(f Match) bool { return f.RightIndex == m.RightIndex }) {
						t.Errorf("%s, %s, record %d: learned match %+v is not in the full answer %+v", tc.name, mode, i, m, fullLearned)
					}
				}
				if len(learned) < len(fullLearned) {
					weakened++
					if a.reason == "" {
						t.Errorf("%s, %s, record %d: answer lacks %d learned match(es) and is not marked degraded", tc.name, mode, i, len(fullLearned)-len(learned))
					}
				}
				if a.reason != ReasonNoMatcher {
					t.Errorf("%s, %s, record %d: degraded_reason %q from a rule-only server", tc.name, mode, i, a.reason)
				}
			}
			switch {
			case tc.fails && failed == 0:
				t.Errorf("%s, %s: nothing failed; the fault did not bite", tc.name, mode)
			case !tc.fails && failed > 0:
				t.Errorf("%s, %s: %d record(s) failed", tc.name, mode, failed)
			case !tc.fails && weakened == 0:
				t.Errorf("%s, %s: no answer lost a learned match; the condition did not bite", tc.name, mode)
			}
		}
	}
}

// rowRecord renders row i of t as a request record.
func rowRecord(t *table.Table, i int) map[string]any {
	rec := map[string]any{}
	for c, v := range t.Row(i) {
		if !v.IsNull() {
			rec[t.Schema().Field(c).Name] = v.Str()
		}
	}
	return rec
}
