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
	if !vocab[obs.OutcomeOK] || !vocab[obs.OutcomeBadRequest] || len(vocab) < 8 {
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
		return // unset: a span nobody judged
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
}

func (c *vocabCheck) want(outcomes ...string) {
	c.t.Helper()
	for _, o := range outcomes {
		if !c.seen[o] {
			c.t.Errorf("no record carried outcome %q — the scenario meant to produce it did not", o)
		}
	}
}

// TestOutcomeVocabulary: whatever a stage, a request or a job's batch
// call writes as its outcome — on a span, a run report, a wide event —
// is a member of the one list in obs, for every way each can end; and
// no non-test source hands SetOutcome a string literal of its own.
func TestOutcomeVocabulary(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	c := &vocabCheck{t: t, vocab: outcomeVocabulary(t), seen: map[string]bool{}}

	t.Run("run", func(t *testing.T) {
		w, l, r := fixtureWorkflow(t)
		res, err := w.RunCtx(context.Background(), l, r, workflow.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		c.run("ok", res)
		w.Blockers = append(w.Blockers, failingBlocker{})
		res, err = w.RunCtx(context.Background(), l, r, workflow.RunOptions{})
		if err == nil {
			t.Fatal("blocking fault must abort the run")
		}
		c.run("aborted", res)
		c.want(obs.OutcomeOK, obs.OutcomeAborted)
	})

	// events checks every access-log line.
	events := func(t *testing.T, sink *syncBuffer, n int) {
		t.Helper()
		for _, ev := range sink.waitEvents(t, n) {
			c.outcome("wide event "+ev["route"].(string), ev["outcome"].(string))
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
		// A traced learned-path answer carries the request's span tree.
		var traced struct {
			Trace *obs.SpanData `json:"trace"`
		}
		postJSON(t, ts.URL+"/v1/match", json.RawMessage(strings.Replace(l1Request, `{"record"`, `{"trace":true,"record"`, 1)), &traced)
		if traced.Trace == nil {
			t.Fatal("traced request answered without a trace")
		}
		c.tree("traced request", traced.Trace)
		if st := post(`{"record":`); st != http.StatusBadRequest {
			t.Fatalf("bad request = %d", st)
		}
		breakMatcher(s)
		if st := post(l1Request); st != http.StatusInternalServerError {
			t.Fatalf("request against a failing matcher = %d", st)
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
		events(t, sink, 7)
		c.want(obs.OutcomeBadRequest, obs.OutcomeError, obs.OutcomeTimeout, obs.OutcomeShed, obs.OutcomeDraining)
	})

	// A job is batch calls: each call ends like a request, one wide event
	// on the batch route, and a matcher that fails a call fails all of it.
	t.Run("job", func(t *testing.T) {
		sink := &syncBuffer{}
		s, ts := newTestServer(t, Config{AccessLog: sink})
		learned := func(n int) string { // learned-path records: every call asks the matcher
			recs := make([]map[string]any, n)
			for i := range recs {
				recs[i] = l1Record("v" + strconv.Itoa(n) + "-" + strconv.Itoa(i))
			}
			body, _ := json.Marshal(map[string]any{"records": recs})
			return string(body)
		}
		if st, body := postBatch(t, ts.URL, learned(2)); st != http.StatusOK {
			t.Fatalf("batch call = %d: %s", st, body)
		}
		breakMatcher(s)
		if st, body := postBatch(t, ts.URL, learned(3)); st != http.StatusInternalServerError {
			t.Fatalf("batch call against a failing matcher = %d: %s", st, body)
		}
		events(t, sink, 2)
		for _, ev := range sink.events(t) {
			if ev["route"] != "/v1/match/batch" {
				t.Errorf("batch call logged on route %v", ev["route"])
			}
		}
		c.want(obs.OutcomeOK, obs.OutcomeError)
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
