package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/fault"
	"emgo/internal/leakcheck"
	"emgo/internal/obs"
)

// streamConfig is the baseline streaming test config: tiny chunks so a
// small job produces many flush boundaries.
func streamConfig(dir string) Config {
	cfg := jobConfig(dir)
	cfg.Stream.FlushEvery = 1
	return cfg
}

// getStream GETs the results endpoint, optionally resuming from a
// cursor and tagging the connection with a request ID.
func getStream(t *testing.T, url, id, cursor, reqID string) *http.Response {
	t.Helper()
	u := url + "/v1/jobs/" + id + "/results"
	if cursor != "" {
		u += "?cursor=" + cursor
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream consumes an NDJSON stream body with the commit-on-cursor
// discipline the real client uses: data lines buffer until their
// chunk's control line lands. It returns the committed data bytes, the
// last committed cursor, and whether the summary line committed.
func readStream(t *testing.T, r io.Reader) (data []byte, cursor string, done bool) {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var pending bytes.Buffer
	pendingDone := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Cursor string `json:"cursor"`
			Done   bool   `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("stream line is not JSON: %q", line)
		}
		if probe.Cursor != "" {
			data = append(data, pending.Bytes()...)
			pending.Reset()
			cursor = probe.Cursor
			if pendingDone {
				done = true
			}
			continue
		}
		pending.Write(line)
		pending.WriteByte('\n')
		if probe.Done {
			pendingDone = true
		}
	}
	return data, cursor, done
}

// fetchResults is the tests' one way to read a completed job's results:
// a plain GET consumed commit-on-cursor. It returns the data lines —
// control lines stripped, since their tokens are signed per job dir and
// the data lines are what "byte-identical" means across servers — and
// fails the test unless the stream answered 200 and committed its
// summary line.
func fetchResults(t *testing.T, url, id string) []byte {
	t.Helper()
	resp := getStream(t, url, id, "", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("results fetch = %d: %s", resp.StatusCode, body)
	}
	data, _, done := readStream(t, resp.Body)
	if !done {
		t.Fatalf("results stream ended without the summary line: %s", data)
	}
	return data
}

// streamedResults is what a results stream's data lines say, decoded.
type streamedResults struct {
	Results []JobRecordResult
	Summary streamSummaryLine
}

// decodeResults sorts fetchResults' data lines into record answers and
// the terminal summary.
func decodeResults(t *testing.T, data []byte) streamedResults {
	t.Helper()
	var out streamedResults
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var kind struct {
			Done bool `json:"done"`
		}
		err := json.Unmarshal(line, &kind)
		switch {
		case err != nil:
		case kind.Done:
			err = json.Unmarshal(line, &out.Summary)
		default:
			var rec JobRecordResult
			err = json.Unmarshal(line, &rec)
			out.Results = append(out.Results, rec)
		}
		if err != nil {
			t.Fatalf("results data line %q: %v", line, err)
		}
	}
	return out
}

// TestResultsPlainFetchIsTheStream: there is one results transport. A
// plain GET and the `?stream=ndjson` spelling older clients send answer
// the same bytes, and the data lines carry every fact the buffered
// document used to: each record's answer in submission order and a
// terminal summary.
// The trailer holds the terminal cursor, and resuming from it yields
// only the summary line again.
func TestResultsPlainFetchIsTheStream(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, jobConfig(t.TempDir()))

	st := submitJob(t, ts.URL, jobPayload(6)) // 3 shards of 2
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)

	code, plain := getBody(t, ts.URL, "/v1/jobs/"+st.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("plain fetch = %d: %s", code, plain)
	}
	if code, tagged := getBody(t, ts.URL, "/v1/jobs/"+st.ID+"/results?stream=ndjson"); code != http.StatusOK || !bytes.Equal(plain, tagged) {
		t.Fatalf("?stream=ndjson (%d) differs from the plain fetch:\nplain:  %s\ntagged: %s", code, plain, tagged)
	}

	resp := getStream(t, ts.URL, st.ID, "", "")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type = %q", ct)
	}
	data, _, done := readStream(t, resp.Body)
	if !done {
		t.Fatal("stream ended without the summary line")
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	res := decodeResults(t, data)
	var order []int
	for _, r := range res.Results {
		order = append(order, r.Index)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4 5]" {
		t.Fatalf("records arrived as %v, want submission order", order)
	}
	if len(res.Results[0].Matches) == 0 || res.Results[0].Matches[0].Source != "rule:M1" {
		t.Fatalf("record 0 missing its sure-rule match: %+v", res.Results[0])
	}
	if len(lines) != 7 {
		t.Fatalf("stream carried %d data lines, want 6 records and the summary: %s", len(lines), data)
	}
	if res.Summary.JobID != st.ID || res.Summary.Records != 6 || res.Summary.Shards != 3 {
		t.Fatalf("summary = %+v", res.Summary)
	}

	// The trailer names the terminal position; resuming from it yields
	// exactly the summary line (so a client that lost the summary can
	// confirm completion) and nothing else.
	trailer := resp.Trailer.Get(streamCursorTrailer)
	if trailer == "" {
		t.Fatal("stream carried no trailer cursor")
	}
	resumed := getStream(t, ts.URL, st.ID, trailer, "")
	defer resumed.Body.Close()
	if resumed.StatusCode != http.StatusOK {
		t.Fatalf("resume from terminal cursor = %d", resumed.StatusCode)
	}
	rdata, _, rdone := readStream(t, resumed.Body)
	if !rdone {
		t.Fatal("terminal resume did not re-deliver the summary")
	}
	if !bytes.Equal(bytes.TrimSuffix(rdata, []byte("\n")), lines[len(lines)-1]) {
		t.Fatalf("terminal resume carried more than the summary: %s", rdata)
	}
}

// TestStreamCutAndResumeByteIdentical is the tentpole contract: cut a
// stream mid-flight (here, deterministically, at the write fault
// site), resume from the last committed cursor on a new connection,
// and the concatenated data bytes are identical to an uninterrupted
// fetch. The access log alone reconstructs the multi-connection fetch:
// the resume event's stream_from equals the cut event's stream_end.
func TestStreamCutAndResumeByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	obs.Enable()
	defer obs.Disable()
	sink := &syncBuffer{}
	cfg := streamConfig(t.TempDir())
	cfg.AccessLog = sink
	_, ts := newTestServer(t, cfg)

	st := submitJob(t, ts.URL, jobPayload(6))
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)

	// Reference: one clean, uninterrupted stream.
	clean := getStream(t, ts.URL, st.ID, "", "clean-conn")
	want, _, done := readStream(t, clean.Body)
	clean.Body.Close()
	if !done {
		t.Fatal("clean stream incomplete")
	}

	// Cut: the third chunk's write fails server-side, so the client has
	// committed exactly two chunks and the server's durable position
	// agrees with the client's.
	cutBefore := obs.C("serve.stream.cut").Value()
	fault.Enable("serve.stream.write", fault.Plan{OnCall: 3})
	cut := getStream(t, ts.URL, st.ID, "", "cut-conn")
	gotA, cursorA, doneA := readStream(t, cut.Body)
	cut.Body.Close()
	fault.Reset()
	if doneA {
		t.Fatal("cut stream claims completion")
	}
	if cursorA == "" {
		t.Fatal("cut stream delivered no committed cursor to resume from")
	}
	if got := obs.C("serve.stream.cut").Value(); got != cutBefore+1 {
		t.Fatalf("serve.stream.cut = %d, want %d", got, cutBefore+1)
	}

	// Resume: a fresh connection picks up at the committed cursor.
	resumedBefore := obs.C("serve.stream.resumed").Value()
	resume := getStream(t, ts.URL, st.ID, cursorA, "resume-conn")
	gotB, _, doneB := readStream(t, resume.Body)
	resume.Body.Close()
	if !doneB {
		t.Fatal("resumed stream incomplete")
	}
	if got := obs.C("serve.stream.resumed").Value(); got != resumedBefore+1 {
		t.Fatalf("serve.stream.resumed = %d, want %d", got, resumedBefore+1)
	}
	if !bytes.Equal(append(append([]byte(nil), gotA...), gotB...), want) {
		t.Fatalf("cut+resume is not byte-identical to the clean stream:\ncut:    %q\nresume: %q\nclean:  %q", gotA, gotB, want)
	}

	// The wide events chain the connections: cut-conn ends where
	// resume-conn begins, so the access log alone reconstructs the
	// fetch across connections.
	byID := map[string]map[string]any{}
	for _, ev := range sink.waitEvents(t, 4) {
		if id, _ := ev["request_id"].(string); id != "" {
			byID[id] = ev
		}
	}
	cutEv, resumeEv := byID["cut-conn"], byID["resume-conn"]
	if cutEv == nil || resumeEv == nil {
		t.Fatalf("access log missing stream events: %v", byID)
	}
	if cutEv["streamed"] != true || cutEv["outcome"] != obs.OutcomeStreamCut {
		t.Fatalf("cut event = %v", cutEv)
	}
	if cutEv["stream_from"] != "0/0" {
		t.Fatalf("cut event stream_from = %v, want 0/0", cutEv["stream_from"])
	}
	if cutEv["stream_end"] != resumeEv["stream_from"] {
		t.Fatalf("stream_end %v of the cut does not chain to stream_from %v of the resume",
			cutEv["stream_end"], resumeEv["stream_from"])
	}
	if resumeEv["stream_complete"] != true {
		t.Fatalf("resume event = %v", resumeEv)
	}
	cleanEv := byID["clean-conn"]
	if cleanEv == nil || cleanEv["stream_complete"] != true || cleanEv["outcome"] != obs.OutcomeOK {
		t.Fatalf("clean event = %v", cleanEv)
	}
}

// TestStreamBadCursorHTTP: the HTTP layer maps cursor failures to the
// uniform 400 (and 409 for matcher drift) without starting a stream.
func TestStreamBadCursorHTTP(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	obs.Enable()
	defer obs.Disable()
	s, ts := newTestServer(t, jobConfig(t.TempDir()))
	jm := s.JobTier()

	st := submitJob(t, ts.URL, jobPayload(4))
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)
	job := jm.Get(st.ID)

	badBefore := obs.C("serve.stream.bad_cursor").Value()
	for name, cursor := range map[string]string{
		"garbage":   "emc1.zzzz.zzzz",
		"cross-job": encodeCursor(jm.streamKey, Cursor{Job: "jother", Matcher: jm.matcherChecksum()}),
	} {
		resp := getStream(t, ts.URL, st.ID, cursor, "")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "invalid cursor") {
			t.Fatalf("%s cursor = %d (%s), want uniform 400", name, resp.StatusCode, body)
		}
	}
	stale := encodeCursor(jm.streamKey, Cursor{Job: job.ID, Matcher: "sha:stale"})
	resp := getStream(t, ts.URL, st.ID, stale, "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-matcher cursor = %d (%s), want 409", resp.StatusCode, body)
	}
	if got := obs.C("serve.stream.bad_cursor").Value(); got != badBefore+3 {
		t.Fatalf("serve.stream.bad_cursor = %d, want %d", got, badBefore+3)
	}
}

// TestStreamBackpressure: at most MaxStreams streams run at once; the
// next one sheds with 429 + Retry-After and succeeds once a slot
// frees.
func TestStreamBackpressure(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	cfg := streamConfig(t.TempDir())
	cfg.Stream.MaxStreams = 1
	_, ts := newTestServer(t, cfg)

	st := submitJob(t, ts.URL, jobPayload(6))
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)

	// Slow every chunk down so the first stream holds its slot long
	// enough for the second request to land mid-stream.
	fault.Enable("serve.stream.write", fault.Plan{Mode: fault.ModeSleep, Sleep: 40 * time.Millisecond})
	firstDone := make(chan error, 1)
	go func() {
		resp := getStream(t, ts.URL, st.ID, "", "")
		defer resp.Body.Close()
		_, _, done := readStream(t, resp.Body)
		if !done {
			firstDone <- fmt.Errorf("gated stream did not complete")
			return
		}
		firstDone <- nil
	}()
	time.Sleep(80 * time.Millisecond) // stream 1 is mid-chunk, slot held

	shed := getStream(t, ts.URL, st.ID, "", "")
	io.Copy(io.Discard, shed.Body) //nolint:errcheck
	shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit stream = %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("shed stream carries no Retry-After hint")
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	fault.Reset()

	retry := getStream(t, ts.URL, st.ID, "", "")
	_, _, done := readStream(t, retry.Body)
	retry.Body.Close()
	if retry.StatusCode != http.StatusOK || !done {
		t.Fatalf("post-drain retry = %d (done=%v), want a complete 200", retry.StatusCode, done)
	}
}

// TestStreamDrainEndsAtBoundary: a drain ends an active stream at its
// next flush boundary with a cursor-only chunk — a valid resume point,
// never a torn record — and new streams are refused 503 while
// draining.
func TestStreamDrainEndsAtBoundary(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	cfg := streamConfig(t.TempDir())
	s, ts := newTestServer(t, cfg)
	jm := s.JobTier()

	st := submitJob(t, ts.URL, jobPayload(8)) // 4 shards of 2
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)
	job := jm.Get(st.ID)

	fault.Enable("serve.stream.write", fault.Plan{Mode: fault.ModeSleep, Sleep: 50 * time.Millisecond})
	type streamEnd struct {
		data   []byte
		cursor string
		done   bool
	}
	got := make(chan streamEnd, 1)
	go func() {
		resp := getStream(t, ts.URL, st.ID, "", "")
		defer resp.Body.Close()
		data, cursor, done := readStream(t, resp.Body)
		got <- streamEnd{data, cursor, done}
	}()
	time.Sleep(120 * time.Millisecond) // a couple of chunks in
	s.StartDrain()

	end := <-got
	if end.done {
		t.Fatal("drained stream claims completion")
	}
	if end.cursor == "" {
		t.Fatal("drained stream ended without a resume cursor")
	}
	cur, err := jm.parseCursorFor(job, end.cursor)
	if err != nil {
		t.Fatalf("drain cursor does not authorize a resume: %v", err)
	}
	if cur.Shard >= job.shards {
		t.Fatalf("drain cursor %+v claims a finished stream", cur)
	}

	// While draining, new streams are refused with a retryable 503; the
	// cursor stays valid for the next server instance.
	resp := getStream(t, ts.URL, st.ID, end.cursor, "")
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream during drain = %d, want 503", resp.StatusCode)
	}
}

// TestStreamSurvivesServerWriteTimeout pins the timeout-scoping fix: a
// healthy stream that outlives the http.Server's global WriteTimeout
// must complete, because the per-chunk deadline overrides the global
// one for stream requests (while non-stream routes keep it).
func TestStreamSurvivesServerWriteTimeout(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	s, ts := newTestServer(t, streamConfig(t.TempDir()))

	st := submitJob(t, ts.URL, jobPayload(6))
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)

	// A second listener over the same server, with the Slowloris-guard
	// timeouts emserve ships: a 200ms write budget for whole responses.
	guarded := httptest.NewUnstartedServer(s.Handler())
	guarded.Config.WriteTimeout = 200 * time.Millisecond
	guarded.Start()
	defer guarded.Close()

	// ~7 chunks × 60ms ≈ 420ms of healthy streaming, over double the
	// global write budget.
	fault.Enable("serve.stream.write", fault.Plan{Mode: fault.ModeSleep, Sleep: 60 * time.Millisecond})
	resp := getStream(t, guarded.URL, st.ID, "", "")
	defer resp.Body.Close()
	data, _, done := readStream(t, resp.Body)
	if !done {
		t.Fatalf("stream died under the global WriteTimeout after %d bytes — per-chunk deadlines are not overriding it", len(data))
	}
}

// fabricateFatJob plants a completed job on disk without executing any
// matching: correct fingerprint, durable spec, and one padded shard
// artifact per shard, then recovers it into the manager. This is how
// the tests get a job far larger than matching the fixture could
// produce.
func fabricateFatJob(t testing.TB, s *Server, records, shardSize, pad int) *Job {
	t.Helper()
	jm := s.JobTier()
	recs := make([]map[string]any, records)
	for i := range recs {
		recs[i] = map[string]any{"RecordId": fmt.Sprintf("fat-%d", i), "Title": "swamp dodder ecology management carrot"}
	}
	canonical, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	fp := jm.jobFingerprint(canonical, shardSize)
	id := "j" + fp[:16]
	store, err := ckpt.Open(filepath.Join(jm.cfg.Dir, id), fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteJSON(jobArtifact, jobSpec{ID: id, ShardSize: shardSize, Records: recs}); err != nil {
		t.Fatal(err)
	}
	padding := strings.Repeat("x", pad)
	shards := (records + shardSize - 1) / shardSize
	for sh := 0; sh < shards; sh++ {
		lo, hi := sh*shardSize, min((sh+1)*shardSize, records)
		art := shardArtifact{Shard: sh, Records: make([]JobRecordResult, hi-lo)}
		for i := lo; i < hi; i++ {
			art.Records[i-lo] = JobRecordResult{Index: i, Degraded: true, DegradedReason: padding}
		}
		data, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Write(shardName(sh), data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := jm.Recover(); err != nil {
		t.Fatal(err)
	}
	job := jm.Get(id)
	if job == nil || job.State() != JobCompleted {
		t.Fatalf("fabricated job not recovered as completed: %v", job)
	}
	return job
}

// tinyBufListener shrinks each accepted connection's kernel write
// buffer so a stalled reader applies real backpressure within a few
// kilobytes instead of disappearing into socket buffers.
type tinyBufListener struct{ net.Listener }

func (l tinyBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok && err == nil {
		tc.SetWriteBuffer(4 << 10) //nolint:errcheck
	}
	return c, err
}

// TestStreamSlowReaderCut: a reader that absorbs one chunk and then
// stalls is cut within the per-chunk write budget — not held forever —
// while a concurrent healthy stream completes, and the stalled client's
// committed cursor resumes to a byte-identical whole.
func TestStreamSlowReaderCut(t *testing.T) {
	if testing.Short() {
		t.Skip("fabricates a multi-megabyte job")
	}
	leakcheck.Check(t)
	defer fault.Reset()
	obs.Enable()
	defer obs.Disable()
	cfg := jobConfig(t.TempDir())
	cfg.Stream.ChunkTimeout = 750 * time.Millisecond
	// Chunks must be far smaller than what the shrunken buffers can move
	// per budget window: tiny windows + delayed ACKs trickle at a few
	// tens of KB/s, and the budget must not cut a slow-but-alive reader
	// mid-chunk — only one that absorbs nothing at all.
	cfg.Stream.FlushEvery = 8
	s, ts := newTestServer(t, cfg)
	// ~1.7 MB over 30 shards: far more than the shrunken socket buffers
	// can absorb, so a stalled reader blocks the server's writes.
	job := fabricateFatJob(t, s, 3000, 100, 500)

	small := httptest.NewUnstartedServer(s.Handler())
	small.Listener = tinyBufListener{small.Listener}
	small.Start()
	defer small.Close()

	// The stalling client also shrinks its receive buffer.
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if tc, ok := c.(*net.TCPConn); ok && err == nil {
			tc.SetReadBuffer(4 << 10) //nolint:errcheck
		}
		return c, err
	}}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(
		small.URL + "/v1/jobs/" + job.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Commit exactly one chunk, then stop reading entirely.
	br := bufio.NewReader(resp.Body)
	var committed bytes.Buffer
	cursorA := ""
	for cursorA == "" {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading the first chunk: %v", err)
		}
		var probe struct {
			Cursor string `json:"cursor"`
		}
		if json.Unmarshal(bytes.TrimSpace(line), &probe) == nil && probe.Cursor != "" {
			cursorA = probe.Cursor
			break
		}
		committed.Write(line)
	}
	cutBefore := obs.C("serve.stream.cut").Value()

	// While the stall holds its slot, a healthy stream on the normal
	// listener runs to completion — the stall pins one slot, not the
	// tier. Its bytes double as the byte-identity reference.
	healthy := getStream(t, ts.URL, job.ID, "", "")
	want, _, done := readStream(t, healthy.Body)
	healthy.Body.Close()
	if !done {
		t.Fatal("healthy stream did not complete while another reader stalled")
	}

	// The server cuts the stalled stream once its chunk write deadline
	// lapses; generous wall-clock bound, tight mechanism.
	deadline := time.Now().Add(10 * time.Second)
	for obs.C("serve.stream.cut").Value() == cutBefore {
		if time.Now().After(deadline) {
			t.Fatal("server never cut the stalled stream")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The committed cursor survives the cut: resuming from it yields
	// exactly the rest of the document.
	resumed := getStream(t, ts.URL, job.ID, cursorA, "")
	rest, _, rdone := readStream(t, resumed.Body)
	resumed.Body.Close()
	if !rdone {
		t.Fatal("post-cut resume did not complete")
	}
	if !bytes.Equal(append(committed.Bytes(), rest...), want) {
		t.Fatalf("stall-cut + resume is not byte-identical: committed %d + resumed %d vs clean %d bytes",
			committed.Len(), len(rest), len(want))
	}
}

// streamPeakHeap streams job to the end and returns how far live heap
// (after forced GC, sampled once per shard's worth of lines) rose above
// its level just before the stream, with the bytes streamed.
func streamPeakHeap(t *testing.T, url string, job *Job, shardSize int) (peakDelta, streamed int64) {
	t.Helper()
	// Two GCs: the first turns over sync.Pool victim caches and the
	// floating garbage the concurrently-running handler allocated
	// mid-mark; the second leaves genuinely live heap.
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := liveHeap()
	resp := getStream(t, url, job.ID, "", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	lines, sawDone := 0, false
	for sc.Scan() {
		streamed += int64(len(sc.Bytes())) + 1
		if bytes.Contains(sc.Bytes(), []byte(`"done":true`)) {
			sawDone = true
		}
		lines++
		if lines%shardSize == 0 {
			peakDelta = max(peakDelta, liveHeap()-base)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if !sawDone {
		t.Fatal("fat-job stream ended without the summary line")
	}
	return peakDelta, streamed
}

// TestStreamMemoryBounded pins the reason results are a stream:
// fetching holds live heap bounded by one shard, not the job — a job
// six times the size, same shard size, peaks no higher beyond
// measurement noise.
func TestStreamMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("fabricates multi-megabyte jobs")
	}
	if raceEnabled {
		t.Skip("race-instrumented allocations inflate HeapAlloc past any honest comparison")
	}
	leakcheck.Check(t)
	defer fault.Reset()
	s, ts := newTestServer(t, jobConfig(t.TempDir()))
	// ~860 B per record in 2000-record shards: 4 shards ≈ 7 MB of result
	// document against 24 shards ≈ 41 MB.
	const shardSize = 2000
	small := fabricateFatJob(t, s, 4*shardSize, shardSize, 800)
	fat := fabricateFatJob(t, s, 24*shardSize, shardSize, 800)

	smallPeak, smallBytes := streamPeakHeap(t, ts.URL, small, shardSize)
	fatPeak, fatBytes := streamPeakHeap(t, ts.URL, fat, shardSize)
	if fatBytes < 5*smallBytes || fatBytes < 36<<20 {
		t.Fatalf("streams carried %d and %d bytes — fabrication did not produce a six-fold job", smallBytes, fatBytes)
	}
	// A peak is a few shards' worth (raw artifact, decoded records, wire
	// buffers, the client's scanner) and where the GC samples land moves
	// it by about as much again. Holding the document would add all of
	// fatBytes-smallBytes; half of that is far outside the noise and far
	// inside the signal.
	if grew, allowed := fatPeak-smallPeak, (fatBytes-smallBytes)/2; grew > allowed {
		t.Fatalf("peak live heap rose %d bytes (from %d to %d) for %d more document bytes (allowed %d) — streaming is scaling with job size",
			grew, smallPeak, fatPeak, fatBytes-smallBytes, allowed)
	}
}
