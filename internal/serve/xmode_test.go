package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"emgo/internal/fault"
	"emgo/internal/leakcheck"
	"emgo/internal/ml"
	"emgo/internal/table"
	"emgo/internal/tokenize"
	"emgo/internal/workflow"
)

// TestOfflineEqualsOnlineModes: the four execution modes give one answer.
// On one seeded slice, per left row, the offline Workflow.RunCtx's Final
// pairs are what POST /v1/match answers for that record, what its entry
// in a POST /v1/match/batch answer says, and what its JobRecordResult in
// a committed job shard holds — the same right rows, in the same order,
// and between the three online modes from the same source (run by make
// race-cpu at one and two CPUs). The job's answers are read twice: in one
// fetch, and reassembled from a fetch cut mid-stream and resumed from its
// last cursor. And the verdict survives a hot reload to a byte-identical
// matcher artifact.
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
	const shard = 16
	matcherPath := filepath.Join(t.TempDir(), "model.json")
	if err := ml.SaveMatcherFile(matcherPath, w.Matcher); err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), Config{MatcherPath: matcherPath,
		Jobs: JobConfig{Dir: t.TempDir(), ShardSize: shard, Workers: 1}}, w, l, r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
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

	singles := func() [][]Match {
		out := make([][]Match, l.Len())
		for i, rec := range records {
			var mr MatchResponse
			post("/v1/match", map[string]any{"record": rec}, &mr)
			if mr.Degraded {
				t.Fatalf("record %d answered degraded (%s)", i, mr.DegradedReason)
			}
			out[i] = mr.Matches
		}
		return out
	}
	single := singles()
	var batch [][]Match
	for lo := 0; lo < len(records); lo += DefaultMaxBatchRecords {
		var br BatchResponse
		post("/v1/match/batch", map[string]any{"records": records[lo:min(lo+DefaultMaxBatchRecords, len(records))]}, &br)
		for _, mr := range br.Results {
			batch = append(batch, mr.Matches)
		}
	}
	body, err := json.Marshal(map[string]any{"records": records})
	if err != nil {
		t.Fatal(err)
	}
	job := submitJob(t, ts.URL, string(body))
	if st := waitJobState(t, ts.URL, job.ID, JobCompleted, 60*time.Second); st.Shards < 2 {
		t.Fatalf("job ran as %d shard(s); the comparison needs records from several", st.Shards)
	}
	whole := fetchResults(t, ts.URL, job.ID)
	jobRes := decodeResults(t, whole).Results
	if len(batch) != l.Len() || len(jobRes) != l.Len() {
		t.Fatalf("%d batch and %d job answers for %d records", len(batch), len(jobRes), l.Len())
	}
	// The same fetch cut about half-way and resumed from the last cursor
	// the client committed: the two connections' data lines are the one
	// fetch's, byte for byte, so they reassemble into the same answers.
	cut := getStream(t, ts.URL, job.ID, "", "")
	got, err := io.ReadAll(io.LimitReader(cut.Body, int64(len(whole)/2)))
	cut.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The line the cut tore is no line; its chunk never commits anyway.
	head, cursor, done := readStream(t, bytes.NewReader(got[:bytes.LastIndexByte(got, '\n')+1]))
	if len(head) == 0 || cursor == "" || done {
		t.Fatalf("cut fetch committed %d bytes, cursor %q, done %v; want a mid-stream cut", len(head), cursor, done)
	}
	rest := getStream(t, ts.URL, job.ID, cursor, "")
	tail, _, done := readStream(t, rest.Body)
	rest.Body.Close()
	if !done || !bytes.Equal(append(head, tail...), whole) {
		t.Fatalf("cut at %d bytes + resumed %d bytes (done %v) is not the one-fetch stream of %d bytes", len(head), len(tail), done, len(whole))
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
		if jobRes[i].Index != i || !sameAnswer(single[i], jobRes[i].Matches) {
			t.Errorf("record %d: /v1/match %+v, in job shard %d %+v", i, single[i], i/shard, jobRes[i])
		}
	}

	before := s.Artifact()
	after, err := s.Reload(context.Background(), "")
	if err != nil || after == before || after.Checksum != before.Checksum {
		t.Fatalf("reload of identical bytes: %v, artifact %p -> %p", err, before, after)
	}
	for i, reloaded := range singles() {
		if !sameAnswer(single[i], reloaded) {
			t.Errorf("record %d: /v1/match %+v before the reload, %+v after", i, single[i], reloaded)
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

// TestAnswersInvariantUnderShardingAndBatching: how records are grouped
// on their way in does not reach their answers. Against each record's
// /v1/match answer: the same records as a job cut into shards of one, of
// sixteen and of the whole table, and — permuted by a seeded shuffle, so
// no record keeps its neighbours — re-cut into batches of 1, 7 and 32
// (make race-cpu runs this at 1, 2 and 4 CPUs).
func TestAnswersInvariantUnderShardingAndBatching(t *testing.T) {
	leakcheck.Check(t)
	w, l, r := paperWorkflowAt(t, tokenize.Word{}, 0.15)
	records := make([]map[string]any, l.Len())
	for i := range records {
		records[i] = rowRecord(l, i)
	}
	jobBody, err := json.Marshal(map[string]any{"records": records})
	if err != nil {
		t.Fatal(err)
	}
	start := func(shard int) string {
		s, err := New(context.Background(), Config{Jobs: JobConfig{Dir: t.TempDir(), ShardSize: shard, Workers: 1}}, w, l, r)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	shards := []int{16, 1, l.Len()}
	url := start(shards[0])

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
	for _, size := range []int{1, 7, 32} {
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

	for k, shard := range shards {
		if k > 0 {
			url = start(shard)
		}
		job := submitJob(t, url, string(jobBody))
		want := (len(records) + shard - 1) / shard
		if st := waitJobState(t, url, job.ID, JobCompleted, 60*time.Second); st.Shards != want {
			t.Fatalf("shard size %d: job ran as %d shards, want %d", shard, st.Shards, want)
		}
		res := decodeResults(t, fetchResults(t, url, job.ID)).Results
		if len(res) != len(records) {
			t.Fatalf("shard size %d: %d job answers for %d records", shard, len(res), len(records))
		}
		for i := range records {
			if res[i].Index != i || !sameAnswer(single[i], res[i].Matches) {
				t.Errorf("record %d: /v1/match %+v, in a job of %d-record shards %+v", i, single[i], shard, res[i])
			}
		}
	}
}

// TestDegradedAnswersWeakenNeverFlip: an answer given without the learned
// matcher is the full answer made weaker, never a different one, and a
// stage that fails fails instead of answering. With no matcher deployed,
// every record's answer over /v1/match, inside a batch and inside a job
// shard keeps exactly the full answer's sure-rule matches, adds no learned
// match the full answer lacks, and says why whenever it is short of one.
// With ml.predict faulted, or every blocker run faulted at block.join,
// each mode fails — a 500, a failed batch, a failed job naming its shard —
// and whatever it still answers is the full answer itself (make race-cpu
// runs this at 1, 2 and 4 CPUs). TestMatchTimeoutWeakensNeverFlips holds
// the other degradation, the ML sub-budget running out.
func TestDegradedAnswersWeakenNeverFlip(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	w, l, r := paperWorkflowAt(t, tokenize.Word{}, 0.15)
	records := make([]map[string]any, l.Len())
	for i := range records {
		records[i] = rowRecord(l, i)
	}
	jobBody, err := json.Marshal(map[string]any{"records": records})
	if err != nil {
		t.Fatal(err)
	}

	type answer struct {
		matches []Match
		reason  string // "" = not degraded
		failed  bool   // the request, batch or job failed: no answer
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
	// collect asks one server for every record three ways.
	collect := func(wf *workflow.Workflow) map[string][]answer {
		s, err := New(context.Background(), Config{Jobs: JobConfig{
			Dir: t.TempDir(), ShardSize: 16, Workers: 1}}, wf, l, r)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
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
		job := submitJob(t, ts.URL, string(jobBody))
		st := waitJobSettled(t, ts.URL, job.ID, 60*time.Second)
		if st.State == JobFailed {
			if !strings.Contains(st.Error, "shard ") {
				t.Errorf("failed job's error does not name its shard: %q", st.Error)
			}
			out["job shard"] = make([]answer, len(records))
			for i := range out["job shard"] {
				out["job shard"][i].failed = true
			}
			return out
		}
		for _, rr := range decodeResults(t, fetchResults(t, ts.URL, job.ID)).Results {
			out["job shard"] = append(out["job shard"], answerOf(rr.Matches, rr.Degraded, rr.DegradedReason))
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

	full := collect(w)["/v1/match"]
	ruleOnly := *w
	ruleOnly.Matcher = nil
	cases := []struct {
		name  string
		wf    *workflow.Workflow
		fault string // the site armed for the whole run, "" = none
		fails bool   // every mode must fail, and answer nothing else
	}{
		{"no matcher", &ruleOnly, "", false},
		{"ml.predict faulted", w, "ml.predict", true},
		{"block.join faulted", w, "block.join", true},
	}
	for _, tc := range cases {
		if tc.fault != "" {
			fault.Enable(tc.fault, fault.Plan{})
		}
		got := collect(tc.wf)
		fault.Reset()
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

// waitJobSettled polls a job until it completes or fails.
func waitJobSettled(t *testing.T, url, id string, timeout time.Duration) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, data := getBody(t, url, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll status = %d: %s", code, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobCompleted || st.State == JobFailed {
			return &st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never settled; last status: %s", data)
		}
		time.Sleep(2 * time.Millisecond)
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
