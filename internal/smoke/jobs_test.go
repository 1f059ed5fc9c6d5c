//go:build smoke

package smoke

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"emgo/internal/load"
)

// jobArgs is the job-tier geometry both scenarios run: 24 records in
// six shards of four, one worker, so kill-specs can name shards.
var jobArgs = []string{"-job-shard-size", strconv.Itoa(shardSize), "-job-workers", "1"}

// submitCanonical submits the canonical job.
func (s *server) submitCanonical(t *testing.T) string {
	t.Helper()
	st, err := s.c.SubmitJob(ctx, pool.JobRecords(jobRecords), shardSize)
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// await waits for a job to complete.
func (s *server) await(t *testing.T, id string) *load.JobStatus {
	t.Helper()
	st, err := s.c.AwaitJob(ctx, id, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// fetch streams a completed job's results to the end and returns the
// data lines — one per record plus the summary on a healthy job.
func (s *server) fetch(t *testing.T, id string) []byte {
	t.Helper()
	got, err := s.c.JobResults(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(got, []byte("\n")); n != jobRecords+1 || bytes.Contains(got, []byte(`"quarantined":true`)) {
		t.Fatalf("results carry %d lines, want %d records + summary and no quarantined shard:\n%s", n, jobRecords, got)
	}
	return got
}

// smokeJob holds the job tier's crash contract: a server SIGKILLed in
// the middle of writing shard 2 restarts over the same job dir, reports
// one recovered job, inherits the two durable shards instead of
// recomputing them, and serves results byte-identical to a clean run's
// under the same content-addressed id. (The shard-boundary kill is
// load.RunChaos's, which the load scenario runs.)
func smokeJob(t *testing.T) {
	dir := t.TempDir()
	clean := start(t, dir, "job_ref", filepath.Join(dir, "jobs_ref"), nil, jobArgs...)
	refID := clean.submitCanonical(t)
	clean.await(t, refID)
	ref := clean.fetch(t, refID)
	clean.drain(t)

	const killSpec = "mid:shard_00002.json"
	jobDir := filepath.Join(dir, "jobs_midwrite")
	victim := start(t, dir, "job_kill", jobDir, []string{"EMCKPT_KILL=" + killSpec}, jobArgs...)
	if id := victim.submitCanonical(t); id != refID {
		t.Errorf("job id %s differs from the clean run's %s — submission is not content-addressed", id, refID)
	}
	if code, err := victim.WaitExit(time.Minute); err != nil || code == 0 || code == 130 || !victim.LogContains("chaos kill at") {
		t.Fatalf("server exit %d (%v), want a SIGKILL at %s with its marker logged", code, err, killSpec)
	}

	heir := start(t, dir, "job_resume", jobDir, nil, jobArgs...)
	if !heir.LogContains("1 unfinished job(s) resumed") {
		t.Error("restart did not report one recovered job")
	}
	if st := heir.await(t, refID); st.ResumedShards < 2 {
		t.Errorf("resumed %d shards, want >= 2 — the restart recomputed durable work", st.ResumedShards)
	}
	if got := heir.fetch(t, refID); !bytes.Equal(got, ref) {
		t.Errorf("resumed results differ from the clean run:\nresumed: %s\nclean:   %s", got, ref)
	}
	heir.drain(t)
}

// streamTo fetches job id into the file at path in the background,
// persisting the committed cursor, and yields the fetch's error when it
// ends. One reconnection only: these fetches exist to be cut.
func (s *server) streamTo(t *testing.T, id, path, cursorPath string) <-chan error {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		defer f.Close()
		_, err := s.c.StreamJobResults(ctx, id, f, load.StreamOptions{CursorPath: cursorPath, MaxResumes: 1})
		done <- err
	}()
	eventually(t, "the first committed chunk in "+path, func() bool {
		fi, err := os.Stat(path)
		return err == nil && fi.Size() > 0
	})
	return done
}

// resume completes a cut fetch from its cursor file and returns
// the cut's committed bytes plus the resumed remainder.
func (s *server) resume(t *testing.T, id, cutPath, cursorPath string) []byte {
	t.Helper()
	if readFile(t, cursorPath) == "" {
		t.Errorf("no cursor persisted in %s", cursorPath)
	}
	var rest bytes.Buffer
	if stats, err := s.c.StreamJobResults(ctx, id, &rest, load.StreamOptions{CursorPath: cursorPath}); err != nil || !stats.Complete {
		t.Fatalf("resume from %s: %v (stats %+v)", cursorPath, err, stats)
	}
	return append([]byte(readFile(t, cutPath)), rest.Bytes()...)
}

// smokeStream holds the results transport's resume contract under the
// worst case for its commit protocol — a cursor at every line, 150ms of
// injected latency per chunk so a stream is killable mid-flight, and a
// hostile 2s -write-timeout every stream must outlive on per-chunk
// deadlines. A fetch cut by SIGKILL and one cut by a drain each resume
// from the client's persisted cursor on a new server over the same job
// dir and reassemble the clean fetch byte for byte; the access logs
// alone chain the drained stream to its resume.
func smokeStream(t *testing.T) {
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs")
	boot := func(name string) (*server, string) {
		access := filepath.Join(dir, name+".jsonl")
		return start(t, dir, name, jobDir, nil, append(jobArgs,
			"-stream-flush", "1", "-write-timeout", "2s",
			"-inject", "serve.stream.write:mode=sleep,sleep=150ms",
			"-access-log", access, "-access-sample", "1")...), access
	}

	s1, _ := boot("stream_1")
	id := s1.submitCanonical(t)
	s1.await(t, id)
	began := time.Now()
	ref := s1.fetch(t, id)
	if took := time.Since(began); took < 2*time.Second {
		t.Errorf("the clean fetch took %v — too fast to prove streams outlive the 2s -write-timeout", took)
	}

	// SIGKILL mid-stream: the client must fail rather than fabricate a
	// tail, keeping a cursor and a committed prefix of the reference.
	part1, cur1 := filepath.Join(dir, "part1.ndjson"), filepath.Join(dir, "cur1.txt")
	cut := s1.streamTo(t, id, part1, cur1)
	s1.Kill()
	if err := <-cut; err == nil {
		t.Error("a fetch against a SIGKILLed server reported a complete stream")
	}
	if prefix := readFile(t, part1); prefix == "" || !strings.HasPrefix(string(ref), prefix) {
		t.Errorf("the committed bytes are not a prefix of the clean fetch:\n%s", prefix)
	}
	s2, access2 := boot("stream_2")
	if got := s2.resume(t, id, part1, cur1); !bytes.Equal(got, ref) {
		t.Errorf("SIGKILL cut + resume differ from the clean fetch:\n%s", got)
	}

	// Drain cut: SIGTERM ends the stream at a flush boundary.
	partA, cur2 := filepath.Join(dir, "partA.ndjson"), filepath.Join(dir, "cur2.txt")
	cut = s2.streamTo(t, id, partA, cur2)
	s2.drain(t)
	if err := <-cut; err == nil {
		t.Error("a fetch against a drained server reported a complete stream")
	}
	cutEnd := ""
	for _, ev := range events(t, access2) {
		if ev["streamed"] == true && ev["outcome"] == "draining" {
			cutEnd, _ = ev["stream_end"].(string)
		}
	}
	if cutEnd == "" {
		t.Error("the drained server logged no streamed outcome=draining event with a stream_end")
	}
	s3, access3 := boot("stream_3")
	if got := s3.resume(t, id, partA, cur2); !bytes.Equal(got, ref) {
		t.Errorf("drain cut + resume differ from the clean fetch:\n%s", got)
	}
	s3.drain(t)
	chained, completed := false, false
	for _, ev := range events(t, access3) {
		chained = chained || ev["stream_from"] == cutEnd
		completed = completed || ev["stream_complete"] == true
	}
	if !chained || !completed {
		t.Errorf("access logs do not chain: resume with stream_from %q seen=%v, stream_complete seen=%v", cutEnd, chained, completed)
	}
}
