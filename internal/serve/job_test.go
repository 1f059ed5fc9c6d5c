package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"emgo/internal/fault"
	"emgo/internal/leakcheck"
)

// jobPayload builds n deterministic job records alternating between the
// sure-rule shape (even) and the learned-path shape (odd), plus the
// submission body carrying them.
func jobPayload(n int) string {
	recs := make([]map[string]any, n)
	for i := range recs {
		id := fmt.Sprintf("q%d", i)
		if i%2 == 0 {
			recs[i] = l0Record(id)
		} else {
			recs[i] = l1Record(id)
		}
	}
	data, err := json.Marshal(map[string]any{"records": recs})
	if err != nil {
		panic(err)
	}
	return string(data)
}

// jobConfig is the baseline job-tier test config: small shards, one
// worker (deterministic shard order).
func jobConfig(dir string) Config {
	return Config{Jobs: JobConfig{
		Dir:       dir,
		ShardSize: 2,
		Workers:   1,
	}}
}

// postJob submits a job body.
func postJob(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data
}

// getBody GETs a path and returns status + body.
func getBody(t *testing.T, url, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// submitJob submits and decodes the accepted status document.
func submitJob(t *testing.T, url, body string) *JobStatus {
	t.Helper()
	status, _, data := postJob(t, url, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", status, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("submit response not a status: %v: %s", err, data)
	}
	if st.ID == "" {
		t.Fatalf("submit response carries no job id: %s", data)
	}
	return &st
}

// waitJobState polls the job until it reaches want (or fails the test
// at timeout, reporting the last observed document).
func waitJobState(t *testing.T, url, id, want string, timeout time.Duration) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last []byte
	for time.Now().Before(deadline) {
		code, data := getBody(t, url, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll status = %d: %s", code, data)
		}
		last = data
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return &st
		}
		if st.State == JobFailed && want != JobFailed {
			t.Fatalf("job failed while waiting for %s: %s", want, data)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job never reached %s; last status: %s", want, last)
	return nil
}

func TestJobLifecycle(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	dir := t.TempDir()
	s, ts := newTestServer(t, jobConfig(dir))

	body := jobPayload(6) // 3 shards of 2
	st := submitJob(t, ts.URL, body)
	if st.Shards != 3 || st.Records != 6 {
		t.Fatalf("accepted status = %+v, want 3 shards / 6 records", st)
	}
	done := waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)
	if done.DoneShards != 3 || done.ResumedShards != 0 {
		t.Fatalf("completed status = %+v", done)
	}

	// Fetching is read-only and deterministic: twice, byte-identical.
	first := fetchResults(t, ts.URL, st.ID)
	if second := fetchResults(t, ts.URL, st.ID); !bytes.Equal(first, second) {
		t.Fatal("double fetch not byte-identical")
	}
	res := decodeResults(t, first)
	if len(res.Results) != 6 {
		t.Fatalf("results = %d records: %s", len(res.Results), first)
	}
	for i, r := range res.Results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d — results must align with submission order", i, r.Index)
		}
	}
	if len(res.Results[0].Matches) == 0 || res.Results[0].Matches[0].Source != "rule:M1" {
		t.Fatalf("record 0 missing sure-rule match: %+v", res.Results[0])
	}
	if len(res.Results[1].Matches) == 0 || res.Results[1].Matches[0].Source != "matcher" {
		t.Fatalf("record 1 missing learned match: %+v", res.Results[1])
	}

	// Idempotent resubmission: same records, same job, zero recompute.
	fault.Enable("serve.job.exec", fault.Plan{OnCall: 1 << 30}) // tripwire: counts executions, never fires
	again := submitJob(t, ts.URL, body)
	if again.ID != st.ID || again.State != JobCompleted {
		t.Fatalf("resubmit = %+v, want completed job %s", again, st.ID)
	}
	time.Sleep(20 * time.Millisecond)
	if n := fault.Count("serve.job.exec"); n != 0 {
		t.Fatalf("resubmitting a completed job re-executed %d shard(s)", n)
	}

	// Close drains the tier; the completed job's artifacts stay on disk.
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, st.ID, "shard_00000.json")); err != nil {
		t.Fatalf("durable shard artifact missing after close: %v", err)
	}
}

// TestJobResumeAfterStopByteIdentical is the package-level resume
// contract: stop a server mid-job (drain commits the in-flight shard,
// skips the rest), start a fresh server over the same directory, and
// the job must complete with (a) no reprocessing of durable shards and
// (b) results byte-identical to an uninterrupted run. A garbage file at
// the next shard's path — a torn write's worst case — must not survive
// into the output either.
func TestJobResumeAfterStopByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	const records = 8 // 4 shards of 2
	body := jobPayload(records)

	// Reference: one clean, uninterrupted run.
	refDir := t.TempDir()
	_, refTS := newTestServer(t, jobConfig(refDir))
	refSt := submitJob(t, refTS.URL, body)
	waitJobState(t, refTS.URL, refSt.ID, JobCompleted, 5*time.Second)
	want := fetchResults(t, refTS.URL, refSt.ID)

	// Interrupted run: slow shards down so the stop lands mid-job.
	dir := t.TempDir()
	fault.Enable("serve.job.exec", fault.Plan{Mode: fault.ModeSleep, Sleep: 40 * time.Millisecond})
	s1, ts1 := newTestServer(t, jobConfig(dir))
	st := submitJob(t, ts1.URL, body)
	if st.ID != refSt.ID {
		t.Fatalf("job id differs across servers (%s vs %s) — submission is not content-addressed", st.ID, refSt.ID)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, data := getBody(t, ts1.URL, "/v1/jobs/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("poll = %d: %s", code, data)
		}
		var cur JobStatus
		if err := json.Unmarshal(data, &cur); err != nil {
			t.Fatal(err)
		}
		if cur.DoneShards >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no shard completed before the stop: %s", data)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.Close() // graceful stop: in-flight shard commits, the rest are skipped

	job1 := s1.JobTier().Get(st.ID)
	if job1 == nil {
		t.Fatal("job vanished from the stopped server")
	}
	interruptedAt := job1.Status()
	if interruptedAt.State != JobInterrupted {
		t.Fatalf("stopped mid-job but state = %s (done %d/%d)", interruptedAt.State, interruptedAt.DoneShards, interruptedAt.Shards)
	}
	durable := interruptedAt.DoneShards
	if durable < 1 || durable >= interruptedAt.Shards {
		t.Fatalf("stop committed %d/%d shards — test needs a genuine mid-job stop", durable, interruptedAt.Shards)
	}

	// Simulate a torn write at the next shard boundary: a full-size
	// garbage file at the exact path the resumed run will commit to. It
	// is not in the manifest, so resume must recompute and overwrite it.
	torn := filepath.Join(dir, st.ID, shardName(durable))
	if err := os.WriteFile(torn, []byte("torn{{{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory. The tripwire plan never fires but
	// counts shard executions: resumed shards must not re-execute.
	fault.Reset()
	fault.Enable("serve.job.exec", fault.Plan{OnCall: 1 << 30})
	s2, ts2 := newTestServer(t, jobConfig(dir))
	if got := s2.JobTier().Recovered(); got != 1 {
		t.Fatalf("recovered %d unfinished jobs, want 1", got)
	}
	done := waitJobState(t, ts2.URL, st.ID, JobCompleted, 10*time.Second)
	if done.ResumedShards != durable {
		t.Fatalf("resumed %d shards, want the %d durable ones", done.ResumedShards, durable)
	}
	if executed := fault.Count("serve.job.exec"); executed != interruptedAt.Shards-durable {
		t.Fatalf("restart executed %d shards, want %d (completed shards must not be reprocessed)",
			executed, interruptedAt.Shards-durable)
	}
	if got := fetchResults(t, ts2.URL, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("resumed results are not byte-identical to the clean run:\nresumed: %s\nclean:   %s", got, want)
	}
}

// TestJobShardAsksMatcherOnce: a shard runs once, and a matcher that
// fails it fails the job: the job settles failed, with nothing committed,
// and its error names the shard and the record inside it — no rule-only
// answer is made durable in the matcher's place.
func TestJobShardAsksMatcherOnce(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	_, ts := newTestServer(t, jobConfig(t.TempDir()))
	// All learned-path records: every shard needs the matcher.
	recs := make([]map[string]any, 4)
	for i := range recs {
		recs[i] = l1Record(fmt.Sprintf("q%d", i))
	}
	body, _ := json.Marshal(map[string]any{"records": recs})

	fault.Enable("ml.predict", fault.Plan{})
	st := submitJob(t, ts.URL, string(body))
	failed := waitJobState(t, ts.URL, st.ID, JobFailed, 5*time.Second)
	if failed.DoneShards != 0 || failed.DegradedRecords != 0 {
		t.Fatalf("a failing matcher committed answers: %+v", failed)
	}
	if !strings.HasPrefix(failed.Error, "shard 0: record 0: ") || !strings.Contains(failed.Error, `"ml.predict"`) {
		t.Fatalf("job error %q does not name shard 0, its record and the fault", failed.Error)
	}
}

// holdsRecords reports whether a value of type t can hold a submission's
// decoded records (map[string]any), however deep.
func holdsRecords(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if t == reflect.TypeOf(map[string]any(nil)) {
		return true
	}
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map, reflect.Chan:
		return holdsRecords(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsRecords(t.Field(i).Type, seen) {
				return true
			}
		}
	}
	return false
}

// TestJobKeepsRowsNotRecords: once job.json is durable a registered job
// — submitted, or recovered by a later process — holds its parsed rows
// and its shard size, and nowhere the submission's record maps: up to
// MaxQueued jobs of maxRecords maps each would stay for the life of the
// server.
func TestJobKeepsRowsNotRecords(t *testing.T) {
	leakcheck.Check(t)
	if holdsRecords(reflect.TypeOf(Job{}), map[reflect.Type]bool{}) {
		t.Fatal("a Job has room for its submission's record maps beside its rows")
	}
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, jobConfig(dir))
	st := submitJob(t, ts1.URL, jobPayload(5))
	waitJobState(t, ts1.URL, st.ID, JobCompleted, 5*time.Second)
	want := fetchResults(t, ts1.URL, st.ID)
	s1.Close()
	s2, ts2 := newTestServer(t, jobConfig(dir))
	for how, s := range map[string]*Server{"submitted": s1, "recovered": s2} {
		job := s.JobTier().Get(st.ID)
		if job == nil {
			t.Fatalf("%s: job %s is not registered", how, st.ID)
		}
		if len(job.rows) != 5 || job.shardSize != 2 || job.shards != 3 {
			t.Fatalf("%s: %d rows in %d shards of %d, want 5 in 3 of 2", how, len(job.rows), job.shards, job.shardSize)
		}
	}
	if got := fetchResults(t, ts2.URL, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("recovered results differ from the submitting process's:\n%s\n%s", got, want)
	}
}

// TestJobFailedShardResubmitted: a shard whose execution fails, or whose
// commit fails at the atomic rename under the store (the torn-write
// shape), fails the job with an error naming the shard and no further
// shard is dispatched. Resubmitting the same records re-runs only the
// missing shards and the job streams the bytes an undisturbed run does.
func TestJobFailedShardResubmitted(t *testing.T) {
	leakcheck.Check(t)
	body := jobPayload(6) // shards 0,1,2
	_, clean := newTestServer(t, jobConfig(t.TempDir()))
	ref := submitJob(t, clean.URL, body)
	waitJobState(t, clean.URL, ref.ID, JobCompleted, 5*time.Second)
	want := fetchResults(t, clean.URL, ref.ID)

	for _, tc := range []struct {
		name    string
		workers int
		arm     func()
	}{
		// Two workers: shard 0 is in flight beside the failing shard 1
		// and still commits.
		{"exec", 2, func() { fault.Enable("serve.job.exec", fault.Plan{Indices: []int{1}}) }},
		// ckpt.rename call 1 is job.json; one worker commits in shard
		// order, so call 3 is shard 1's commit.
		{"rename", 1, func() { fault.Enable("ckpt.rename", fault.Plan{OnCall: 3}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer fault.Reset()
			cfg := jobConfig(t.TempDir())
			cfg.Jobs.Workers = tc.workers
			_, ts := newTestServer(t, cfg)
			tc.arm()

			st := submitJob(t, ts.URL, body)
			failed := waitJobState(t, ts.URL, st.ID, JobFailed, 5*time.Second)
			if !strings.Contains(failed.Error, "shard 1:") {
				t.Fatalf("failed job's error %q does not name shard 1", failed.Error)
			}
			if failed.DoneShards < 1 || failed.DoneShards >= failed.Shards {
				t.Fatalf("failed job committed %d/%d shards, want shard 0 and not shard 1", failed.DoneShards, failed.Shards)
			}

			// The tripwire never fires but counts shard executions.
			fault.Reset()
			fault.Enable("serve.job.exec", fault.Plan{OnCall: 1 << 30})
			again := submitJob(t, ts.URL, body)
			if again.ID != st.ID {
				t.Fatalf("resubmit id = %s, want %s", again.ID, st.ID)
			}
			waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)
			if n := fault.Count("serve.job.exec"); n != failed.Shards-failed.DoneShards {
				t.Fatalf("resubmit executed %d shards, want the %d missing ones", n, failed.Shards-failed.DoneShards)
			}
			if got := fetchResults(t, ts.URL, st.ID); !bytes.Equal(got, want) {
				t.Fatalf("results after a resubmit differ from an undisturbed run:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestJobCorruptShardRecomputedOnFetch: bytes rotted after completion
// are caught by the manifest checksum at fetch time; the stream ends
// before the rotted shard without a summary line (never silently
// partial), the shard is quarantined and recomputed, and the eventual
// results are byte-identical to the pre-corruption fetch.
func TestJobCorruptShardRecomputedOnFetch(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	dir := t.TempDir()
	_, ts := newTestServer(t, jobConfig(dir))

	st := submitJob(t, ts.URL, jobPayload(4))
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)
	want := fetchResults(t, ts.URL, st.ID)

	// Rot shard 0 on disk.
	path := filepath.Join(dir, st.ID, shardName(0))
	if err := os.WriteFile(path, []byte(`{"shard":0,"records":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	resp := getStream(t, ts.URL, st.ID, "", "")
	data, _, done := readStream(t, resp.Body)
	resp.Body.Close()
	if done || len(data) != 0 {
		t.Fatalf("fetch of a corrupt shard committed %d bytes (done=%v), want a stream cut before it", len(data), done)
	}
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)
	if got := fetchResults(t, ts.URL, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("recomputed results differ from the original:\nnew: %s\nold: %s", got, want)
	}
}

// TestJobQuarantineMarkerRecomputedOnFetch: a job store written by an
// older build may hold a quarantine marker where a shard's records belong.
// Its bytes verify, so the fetch-side validator is what condemns it: the
// stream ends before that shard without a summary line, the job is
// re-queued, and the recomputed results are byte-identical to a clean run.
func TestJobQuarantineMarkerRecomputedOnFetch(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, jobConfig(t.TempDir()))
	st := submitJob(t, ts.URL, jobPayload(6)) // shards 0,1,2
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)
	want := fetchResults(t, ts.URL, st.ID)

	marker := json.RawMessage(`{"shard":1,"quarantined":true,"reason":"exhausted attempts"}`)
	if err := s.JobTier().Get(st.ID).store.WriteJSON(shardName(1), marker); err != nil {
		t.Fatal(err)
	}
	resp := getStream(t, ts.URL, st.ID, "", "")
	data, _, done := readStream(t, resp.Body)
	resp.Body.Close()
	if done || bytes.Contains(data, []byte(`"quarantined"`)) {
		t.Fatalf("fetch over a quarantine marker streamed it (done=%v): %s", done, data)
	}
	if n := len(decodeResults(t, data).Results); n != 2 {
		t.Fatalf("the stream carried %d records before the marker, want shard 0's 2", n)
	}
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)
	if got := fetchResults(t, ts.URL, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("recomputed results differ from the clean run:\nnew: %s\nold: %s", got, want)
	}
}

// TestJobSubmitShedsWhenSaturated: MaxQueued bounds the tier; the
// excess submission is shed with 429 + Retry-After (the same contract
// as online overload), while resubmitting an admitted job is not shed.
func TestJobSubmitShedsWhenSaturated(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	cfg := jobConfig(t.TempDir())
	cfg.Jobs.MaxQueued = 1
	_, ts := newTestServer(t, cfg)
	fault.Enable("serve.job.exec", fault.Plan{Mode: fault.ModeSleep, Sleep: 100 * time.Millisecond})

	bodyA := jobPayload(4)
	stA := submitJob(t, ts.URL, bodyA)

	recsB := []map[string]any{l2Record("b0"), l2Record("b1")}
	rawB, _ := json.Marshal(map[string]any{"records": recsB})
	code, hdr, data := postJob(t, ts.URL, string(rawB))
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d (%s), want 429", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed submission carries no Retry-After hint")
	}

	// Idempotent resubmission of the admitted job is not shed.
	again := submitJob(t, ts.URL, bodyA)
	if again.ID != stA.ID {
		t.Fatalf("resubmit id = %s, want %s", again.ID, stA.ID)
	}
	waitJobState(t, ts.URL, stA.ID, JobCompleted, 5*time.Second)

	// With the queue drained, the shed job is admitted on retry.
	code, _, data = postJob(t, ts.URL, string(rawB))
	if code != http.StatusAccepted {
		t.Fatalf("post-drain submit = %d (%s), want 202", code, data)
	}
	var stB JobStatus
	if err := json.Unmarshal(data, &stB); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, ts.URL, stB.ID, JobCompleted, 5*time.Second)
}

// TestJobEndpointsDisabled: without a checkpoint directory the tier is
// off and every job endpoint answers 503 — never a panic or a silent
// in-memory-only job.
func TestJobEndpointsDisabled(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	_, ts := newTestServer(t, Config{})
	if code, _, data := postJob(t, ts.URL, jobPayload(2)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit on disabled tier = %d: %s", code, data)
	}
	for _, path := range []string{"/v1/jobs/jx", "/v1/jobs/jx/results"} {
		if code, data := getBody(t, ts.URL, path); code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s on disabled tier = %d: %s", path, code, data)
		}
	}
}

// TestJobBadRequests: submission validation is typed and job lookups
// 404 cleanly.
func TestJobBadRequests(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	cfg := jobConfig(t.TempDir())
	cfg.Jobs.maxRecords = 4
	_, ts := newTestServer(t, cfg)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed", `{nope`, 400},
		{"empty records", `{"records":[]}`, 400},
		{"bad column", `{"records":[{"Bogus":"x"}]}`, 400},
		{"trailing data", `{"records":[{"Title":"x"}]}extra`, 400},
		{"negative shard size", `{"records":[{"Title":"x"}],"shard_size":-1}`, 400},
		{"over record cap", jobPayload(5), 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, data := postJob(t, ts.URL, tc.body)
			if code != tc.want {
				t.Fatalf("submit = %d (%s), want %d", code, data, tc.want)
			}
		})
	}
	if code, _ := getBody(t, ts.URL, "/v1/jobs/jdeadbeef"); code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL, "/v1/jobs/jdeadbeef/results"); code != http.StatusNotFound {
		t.Fatalf("unknown job results = %d, want 404", code)
	}
}

// TestJobResultsBeforeCompletion: polling is fine but fetching early is
// a 409 naming the current state.
func TestJobResultsBeforeCompletion(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	_, ts := newTestServer(t, jobConfig(t.TempDir()))
	fault.Enable("serve.job.exec", fault.Plan{Mode: fault.ModeSleep, Sleep: 80 * time.Millisecond})

	st := submitJob(t, ts.URL, jobPayload(8))
	code, data := getBody(t, ts.URL, "/v1/jobs/"+st.ID+"/results")
	if code != http.StatusConflict {
		t.Fatalf("early fetch = %d (%s), want 409", code, data)
	}
	waitJobState(t, ts.URL, st.ID, JobCompleted, 10*time.Second)
}

// TestJobResubmitWhileRunning: an idempotent resubmission reads the
// job's state while the dispatcher is writing it (what emload's blend
// does on purpose), and identical first submissions arriving together
// register one job. Under -race this fails if Submit reads Job.state
// without the job's own lock; every caller gets the same *Job back and
// every job completes once.
func TestJobResubmitWhileRunning(t *testing.T) {
	leakcheck.Check(t)
	s, _ := newTestServer(t, jobConfig(t.TempDir()))
	jm := s.JobTier()

	for round := 0; round < 12; round++ {
		recs := make([]map[string]any, 6) // 3 shards of 2
		for i := range recs {
			recs[i] = l1Record(fmt.Sprintf("r%d-%d", round, i))
		}
		const submitters = 4
		got := make([]*Job, submitters)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					job, err := jm.Submit(recs, 0, "")
					if err != nil {
						t.Errorf("round %d: resubmit: %v", round, err)
						return
					}
					if got[g] == nil {
						got[g] = job
					} else if got[g] != job {
						t.Errorf("round %d: one set of records registered two jobs", round)
						return
					}
					if job.State() == JobCompleted {
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, job := range got[1:] {
			if job != got[0] {
				t.Fatalf("round %d: concurrent identical submissions got different jobs", round)
			}
		}
		if st := got[0].Status(); st.State != JobCompleted || st.DoneShards != 3 {
			t.Fatalf("round %d: job ended %+v", round, st)
		}
	}
}
