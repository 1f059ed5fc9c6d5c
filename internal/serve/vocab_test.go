package serve

import (
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/fault"
	"emgo/internal/leakcheck"
	"emgo/internal/obs"
	"emgo/internal/workflow"
)

// outcomeVocabulary reads the one outcome list out of its source file, so
// a constant added there is in the vocabulary here without an edit.
func outcomeVocabulary(t *testing.T) map[string]bool {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "obs", "outcome.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	vocab := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if lit, ok := spec.Values[i].(*ast.BasicLit); ok && strings.HasPrefix(name.Name, "Outcome") {
				v, _ := strconv.Unquote(lit.Value)
				vocab[v] = true
			}
		}
		return true
	})
	if !vocab[obs.OutcomeOK] || !vocab[obs.OutcomeFailed] || len(vocab) < 10 {
		t.Fatalf("outcome list not read from obs/outcome.go: %v", vocab)
	}
	return vocab
}

// vocabCheck collects every outcome it is shown and fails on one outside
// the vocabulary.
type vocabCheck struct {
	t     *testing.T
	vocab map[string]bool
	seen  map[string]bool
}

func (c *vocabCheck) outcome(where, outcome string) {
	c.t.Helper()
	if outcome == "" {
		return // unset: a span nobody judged, an ok provenance entry
	}
	c.seen[outcome] = true
	if !c.vocab[outcome] {
		c.t.Errorf("%s: outcome %q is not in the obs vocabulary", where, outcome)
	}
}

func (c *vocabCheck) tree(where string, d *obs.SpanData) {
	c.t.Helper()
	if d == nil {
		return
	}
	c.outcome(where+" span "+d.Name, d.Outcome)
	for _, child := range d.Children {
		c.tree(where, child)
	}
}

func (c *vocabCheck) run(where string, res *workflow.Result) {
	c.t.Helper()
	c.outcome(where+" report", res.Report.Outcome)
	c.tree(where, res.Report.Trace)
	for _, e := range res.Report.Provenance {
		c.outcome(where+" provenance "+e.Step, e.Outcome)
	}
}

func (c *vocabCheck) want(outcomes ...string) {
	c.t.Helper()
	for _, o := range outcomes {
		if !c.seen[o] {
			c.t.Errorf("no record carried outcome %q — the scenario meant to produce it did not", o)
		}
	}
}

// TestOutcomeVocabulary: whatever a stage, a request or a job writes as
// its outcome — on a span, a provenance entry, a run report, a wide event
// — is a member of the one list in obs, for every way each can end; and
// no non-test source hands SetOutcome a string literal of its own.
func TestOutcomeVocabulary(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	c := &vocabCheck{t: t, vocab: outcomeVocabulary(t), seen: map[string]bool{}}

	t.Run("run", func(t *testing.T) {
		w, l, r := fixtureWorkflow(t)
		store, err := ckpt.Open(t.TempDir(), ckpt.Fingerprint("vocab"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"ok", "resumed"} { // the second run restores the first one's checkpoints
			res, err := w.RunCtx(context.Background(), l, r, workflow.RunOptions{Checkpoints: store})
			if err != nil {
				t.Fatal(err)
			}
			c.run(name, res)
		}
		fault.Enable("block.join", fault.Plan{FailFirst: 1})
		res, err := w.RunCtx(context.Background(), l, r, workflow.RunOptions{})
		if err == nil {
			t.Fatal("blocking fault must abort the run")
		}
		c.run("aborted", res)
		fault.Reset()
		c.want(obs.OutcomeOK, obs.OutcomeResumed, obs.OutcomeAborted)
	})

	// events checks every access-log line and every retained tail entry.
	events := func(t *testing.T, s *Server, sink *syncBuffer, n int) {
		t.Helper()
		for _, ev := range sink.waitEvents(t, n) {
			c.outcome("wide event "+ev["route"].(string), ev["outcome"].(string))
		}
		snap := s.TailSnapshot()
		for _, e := range append(append(snap.Slowest, snap.Errored...), snap.Degraded...) {
			c.outcome("tail event "+e.Event.Route, e.Event.Outcome)
			c.tree("tail "+e.Event.Route, e.Trace)
		}
	}

	t.Run("request", func(t *testing.T) {
		sink := &syncBuffer{}
		s, ts := newTestServer(t, Config{AccessLog: sink, Admission: AdmissionConfig{MaxInFlight: 1, MaxQueue: -1}})
		post := func(body string) int {
			st, _, _ := postMatch(t, ts.URL, body)
			return st
		}
		if st := post(l0Request); st != http.StatusOK {
			t.Fatalf("ok request = %d", st)
		}
		if st := post(`{"record":`); st != http.StatusBadRequest {
			t.Fatalf("bad request = %d", st)
		}
		fault.Enable("ml.predict", fault.Plan{})
		if st := post(l1Request); st != http.StatusOK {
			t.Fatalf("degraded request = %d", st)
		}
		// One slow request holds the only slot: a second is shed, and the
		// slow one, on a 20 ms budget, times out.
		fault.Enable("serve.match", fault.Plan{Mode: fault.ModeSleep, Sleep: 150 * time.Millisecond})
		var wg sync.WaitGroup
		statuses := make([]int, 2)
		for i := range statuses {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				statuses[i] = post(strings.Replace(l0Request, `{"record"`, `{"timeout_ms":20,"record"`, 1))
			}(i)
			time.Sleep(30 * time.Millisecond)
		}
		wg.Wait()
		if statuses[0] != http.StatusGatewayTimeout || statuses[1] != http.StatusTooManyRequests {
			t.Fatalf("slow + concurrent request = %v, want [504 429]", statuses)
		}
		fault.Reset()
		s.StartDrain()
		if st := post(l0Request); st != http.StatusServiceUnavailable {
			t.Fatalf("request while draining = %d", st)
		}
		events(t, s, sink, 6)
		c.want(obs.OutcomeBadRequest, obs.OutcomeTimeout, obs.OutcomeShed, obs.OutcomeDraining)
	})

	t.Run("job", func(t *testing.T) {
		sink := &syncBuffer{}
		cfg := jobConfig(t.TempDir())
		cfg.AccessLog = sink
		s, ts := newTestServer(t, cfg)
		learned := func(n int) string { // distinct learned-path jobs: the ID is the content
			recs := make([]map[string]any, n)
			for i := range recs {
				recs[i] = l1Record("v" + strconv.Itoa(n) + "-" + strconv.Itoa(i))
			}
			body, _ := json.Marshal(map[string]any{"records": recs})
			return string(body)
		}
		// Completed, then completed on rule-only answers.
		st := submitJob(t, ts.URL, learned(2))
		waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)
		fault.Enable("ml.predict", fault.Plan{})
		st = submitJob(t, ts.URL, learned(3))
		if done := waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second); done.DegradedRecords != 3 {
			t.Fatalf("poisoned matcher degraded %d/3 records", done.DegradedRecords)
		}
		fault.Reset()
		// Shards are slow from here on, so the tier stops with work left.
		fault.Enable("serve.job.exec", fault.Plan{Mode: fault.ModeSleep, Sleep: 40 * time.Millisecond})
		// Failed: the store refuses every write, so the first shard's
		// commit fails the job.
		st = submitJob(t, ts.URL, learned(4))
		fault.Enable("ckpt.write", fault.Plan{})
		waitJobState(t, ts.URL, st.ID, JobFailed, 5*time.Second)
		fault.Disable("ckpt.write")
		// Interrupted: the tier stops with shards still to run.
		st = submitJob(t, ts.URL, learned(6))
		waitJobState(t, ts.URL, st.ID, JobRunning, 5*time.Second)
		s.Close()
		if got := s.JobTier().Get(st.ID).State(); got != JobInterrupted {
			t.Fatalf("job stopped under = %s, want %s", got, JobInterrupted)
		}
		events(t, s, sink, 4)
		var jobEvents int
		for _, ev := range sink.events(t) {
			if ev["route"] == jobRoute {
				jobEvents++
			}
		}
		if jobEvents != 4 {
			t.Errorf("%d job wide events, want one per execution (4)", jobEvents)
		}
		c.want(obs.OutcomeError, obs.OutcomeFailed, obs.OutcomeInterrupted)
	})

	t.Run("source", func(t *testing.T) {
		literal := regexp.MustCompile(`SetOutcome\(\s*["` + "`" + `]`)
		for _, root := range []string{filepath.Join("..", "..", "internal"), filepath.Join("..", "..", "cmd")} {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
					return err
				}
				src, err := os.ReadFile(path)
				if err == nil && literal.Match(src) {
					t.Errorf("%s passes SetOutcome a string literal; use an obs.Outcome* constant", path)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}
