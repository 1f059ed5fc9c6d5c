package load

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emgo/internal/leakcheck"
)

// fakeStreamServer mimics emserve's NDJSON results stream: chunks of
// data lines each sealed by a {"cursor":...} control line, a terminal
// summary line with done:true, and opaque resume tokens. It can shed
// the first request and tear the first connection mid-chunk.
type fakeStreamServer struct {
	lines     [][]byte // data lines; the last is the summary
	chunk     int      // data lines per committed chunk
	cutAfter  int      // tear connection 1 after this many committed chunks (0 = never)
	shedFirst atomic.Bool
	conns     atomic.Int64
	polls     atomic.Int64 // status polls of jfake; the first answers "running"

	mu      sync.Mutex
	cursors []string // every ?cursor= the server was asked to resume from
}

func newFakeStreamServer(records, chunk int) *fakeStreamServer {
	f := &fakeStreamServer{chunk: chunk}
	for i := 0; i < records; i++ {
		f.lines = append(f.lines, []byte(fmt.Sprintf(`{"index":%d,"title":"record %d"}`, i, i)))
	}
	f.lines = append(f.lines, []byte(fmt.Sprintf(`{"done":true,"records":%d}`, records)))
	return f
}

// want is the byte-exact output of a complete fetch.
func (f *fakeStreamServer) want() []byte {
	return append(bytes.Join(f.lines, []byte("\n")), '\n')
}

func (f *fakeStreamServer) seenCursors() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.cursors...)
}

func (f *fakeStreamServer) handler() http.Handler {
	mux := http.NewServeMux()
	// The rest of the job's life: a submission (shed like the stream is),
	// jfake's status — running, then completed — and jdead, which failed.
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if f.shedFirst.CompareAndSwap(true, false) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"jfake","state":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/jfake", func(w http.ResponseWriter, r *http.Request) {
		state := "completed"
		if f.polls.Add(1) == 1 {
			state = "running"
		}
		fmt.Fprintf(w, `{"id":"jfake","state":%q,"resumed_shards":2}`, state)
	})
	mux.HandleFunc("GET /v1/jobs/jdead", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"jdead","state":"failed","error":"store full"}`)
	})
	mux.HandleFunc("GET /v1/jobs/jfake/results", func(w http.ResponseWriter, r *http.Request) {
		if f.shedFirst.CompareAndSwap(true, false) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		start := 0
		if cur := r.URL.Query().Get("cursor"); cur != "" {
			if _, err := fmt.Sscanf(cur, "t%d", &start); err != nil || start < 0 || start > len(f.lines) {
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			f.mu.Lock()
			f.cursors = append(f.cursors, cur)
			f.mu.Unlock()
		}
		conn := f.conns.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		fl := w.(http.Flusher)
		chunks := 0
		for i := start; i < len(f.lines); {
			end := min(i+f.chunk, len(f.lines))
			for _, ln := range f.lines[i:end] {
				w.Write(ln)           //nolint:errcheck
				w.Write([]byte("\n")) //nolint:errcheck
			}
			chunks++
			if conn == 1 && f.cutAfter > 0 && chunks > f.cutAfter {
				// Tear the connection after the chunk's data lines but
				// before its control line: a torn chunk the client must
				// drop and re-fetch.
				fl.Flush()
				panic(http.ErrAbortHandler)
			}
			fmt.Fprintf(w, "{\"cursor\":\"t%d\"}\n", end)
			fl.Flush()
			i = end
		}
	})
	return mux
}

func newStreamTestClient(t *testing.T, f *fakeStreamServer) *Client {
	t.Helper()
	srv := httptest.NewServer(f.handler())
	t.Cleanup(srv.Close)
	c := NewClient(ClientConfig{BaseURL: srv.URL}, testPool(8))
	t.Cleanup(c.CloseIdle)
	return c
}

func TestStreamJobResultsCompletes(t *testing.T) {
	leakcheck.Check(t)
	f := newFakeStreamServer(9, 2)
	c := newStreamTestClient(t, f)

	var out bytes.Buffer
	stats, err := c.StreamJobResults(context.Background(), "jfake", &out, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete || stats.Resumes != 0 {
		t.Fatalf("stats = %+v, want complete with no resumes", stats)
	}
	if stats.Lines != 10 { // 9 records + summary
		t.Fatalf("stats.Lines = %d, want 10", stats.Lines)
	}
	if !bytes.Equal(out.Bytes(), f.want()) {
		t.Fatalf("streamed output differs:\ngot:  %q\nwant: %q", out.Bytes(), f.want())
	}
	if stats.Bytes != int64(out.Len()) {
		t.Fatalf("stats.Bytes = %d, wrote %d", stats.Bytes, out.Len())
	}
}

// TestStreamResumesAcrossTornConnection: the server tears connection 1
// mid-chunk; the client drops the uncommitted lines, resumes from its
// committed cursor, and the final output is byte-identical anyway.
func TestStreamResumesAcrossTornConnection(t *testing.T) {
	leakcheck.Check(t)
	f := newFakeStreamServer(9, 2)
	f.cutAfter = 2
	c := newStreamTestClient(t, f)

	var out bytes.Buffer
	stats, err := c.StreamJobResults(context.Background(), "jfake", &out, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete || stats.Resumes != 1 {
		t.Fatalf("stats = %+v, want complete after exactly 1 resume", stats)
	}
	if !bytes.Equal(out.Bytes(), f.want()) {
		t.Fatalf("cut+resume output differs:\ngot:  %q\nwant: %q", out.Bytes(), f.want())
	}
	// The resume asked for the committed position (2 chunks × 2 lines),
	// not the torn chunk's.
	if got := f.seenCursors(); len(got) != 1 || got[0] != "t4" {
		t.Fatalf("server saw resume cursors %v, want [t4]", got)
	}
}

// TestStreamInjectedDisconnects: the client-side chaos hook drops the
// connection after every committed chunk and the fetch still converges
// byte-identically.
func TestStreamInjectedDisconnects(t *testing.T) {
	leakcheck.Check(t)
	f := newFakeStreamServer(9, 2)
	c := newStreamTestClient(t, f)

	var out bytes.Buffer
	stats, err := c.StreamJobResults(context.Background(), "jfake", &out, StreamOptions{
		disconnectEvery: 1,
		MaxResumes:      16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete || stats.Resumes < 3 {
		t.Fatalf("stats = %+v, want completion across several resumes", stats)
	}
	if !bytes.Equal(out.Bytes(), f.want()) {
		t.Fatalf("chaos output differs:\ngot:  %q\nwant: %q", out.Bytes(), f.want())
	}
}

// TestStreamCursorFileSurvivesRestart: a fetch that dies with its
// cursor persisted is finished by a second fetch (a "new process")
// that reads the cursor file and appends only the missing lines.
func TestStreamCursorFileSurvivesRestart(t *testing.T) {
	leakcheck.Check(t)
	f := newFakeStreamServer(9, 2)
	c := newStreamTestClient(t, f)
	cursorPath := filepath.Join(t.TempDir(), "stream.cursor")

	// First fetch: disconnect after 2 chunks with no resumes allowed —
	// the closest in-process stand-in for a SIGKILL after a commit.
	var out bytes.Buffer
	_, err := c.StreamJobResults(context.Background(), "jfake", &out, StreamOptions{
		CursorPath:      cursorPath,
		disconnectEvery: 2,
		MaxResumes:      1, // first disconnect resumes once, second aborts
	})
	if err == nil {
		t.Fatal("truncated fetch reported success")
	}
	persisted, rerr := os.ReadFile(cursorPath)
	if rerr != nil || len(persisted) == 0 {
		t.Fatalf("no cursor persisted: %v", rerr)
	}

	// Second fetch ("after restart"): options carry no cursor — it must
	// come off disk.
	stats, err := c.StreamJobResults(context.Background(), "jfake", &out, StreamOptions{CursorPath: cursorPath})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete {
		t.Fatalf("restarted fetch incomplete: %+v", stats)
	}
	if !bytes.Equal(out.Bytes(), f.want()) {
		t.Fatalf("restart output differs:\ngot:  %q\nwant: %q", out.Bytes(), f.want())
	}
	if got := f.seenCursors(); len(got) == 0 || got[len(got)-1] != strings.TrimSpace(string(persisted)) {
		t.Fatalf("restart did not resume from the persisted cursor %q: server saw %v", persisted, got)
	}
}

// TestStreamHonorsShed: a 429 before the stream starts is retried with
// the hint, bounded by MaxRetryAfter, and counts as a resume.
func TestStreamHonorsShed(t *testing.T) {
	leakcheck.Check(t)
	f := newFakeStreamServer(5, 2)
	f.shedFirst.Store(true)
	srv := httptest.NewServer(f.handler())
	t.Cleanup(srv.Close)
	c := NewClient(ClientConfig{BaseURL: srv.URL, MaxRetryAfter: 50 * time.Millisecond}, testPool(8))
	t.Cleanup(c.CloseIdle)

	var out bytes.Buffer
	start := time.Now()
	stats, err := c.StreamJobResults(context.Background(), "jfake", &out, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete || stats.Resumes != 1 {
		t.Fatalf("stats = %+v, want complete after the shed retry", stats)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shed retry ignored the MaxRetryAfter cap: took %v", elapsed)
	}
	if !bytes.Equal(out.Bytes(), f.want()) {
		t.Fatalf("post-shed output differs: %q", out.Bytes())
	}
}

// TestJobLifecycle: the one client-side spelling of a job's life — a
// submission pushed through a shed, an await that outlasts "running", a
// fetch of exactly the stream's data lines — and the blend's watcher
// counting a finished and a failed job through the same calls.
func TestJobLifecycle(t *testing.T) {
	leakcheck.Check(t)
	f := newFakeStreamServer(5, 2)
	f.shedFirst.Store(true)
	srv := httptest.NewServer(f.handler())
	t.Cleanup(srv.Close)
	c := NewClient(ClientConfig{BaseURL: srv.URL, MaxRetryAfter: 20 * time.Millisecond}, testPool(8))
	t.Cleanup(c.CloseIdle)
	ctx := context.Background()

	st, err := c.SubmitJob(ctx, c.pool.JobRecords(5), 2)
	if err != nil || st.ID != "jfake" {
		t.Fatalf("SubmitJob through one shed = %+v, %v", st, err)
	}
	st, body, err := c.FinishJob(ctx, st.ID, 5*time.Second)
	if err != nil || st.State != "completed" || st.ResumedShards != 2 || !bytes.Equal(body, f.want()) {
		t.Fatalf("FinishJob = %+v, %v, body %q; want completed with the stream's data lines", st, err, body)
	}
	if f.polls.Load() < 2 {
		t.Fatalf("await returned after %d poll(s), before the job left \"running\"", f.polls.Load())
	}
	if _, _, err := c.FinishJob(ctx, "jdead", 5*time.Second); err == nil || !strings.Contains(err.Error(), "store full") {
		t.Fatalf("FinishJob of a failed job: %v, want its error", err)
	}

	w := newJobWatcher(c)
	w.track("jfake")
	w.track("jfake") // a content-addressed resubmission: one watch
	w.track("jdead")
	w.wait(ctx, 5*time.Second)
	if sub, done, failed := w.counts(); sub != 3 || done != 1 || failed != 1 {
		t.Fatalf("watcher counts = %d submitted, %d completed, %d failed; want 3, 1, 1", sub, done, failed)
	}
}
