package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emgo/internal/block"
	"emgo/internal/fault"
	"emgo/internal/feature"
	"emgo/internal/leakcheck"
	"emgo/internal/ml"
	"emgo/internal/table"
	"emgo/internal/tokenize"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// matchOne answers one row the way handleMatch does under its HTTP layer:
// a one-row request table through matchSet.
func (s *Server) matchOne(ctx context.Context, row table.Row, wantTrace bool) (*MatchResponse, error) {
	left, err := s.rowsTable("request", []table.Row{row})
	if err != nil {
		return nil, err
	}
	resps, _, trace, err := s.matchSet(ctx, left, s.breaker, wantTrace)
	if err != nil {
		return nil, err
	}
	resps[0].Trace = trace
	return resps[0], nil
}

// cellCounter is a word tokenizer counting the cells it is handed; used by
// pointer so the blockers holding it are over one token form.
type cellCounter struct{ cells atomic.Int64 }

func (c *cellCounter) Tokens(s string) []string {
	c.cells.Add(1)
	return tokenize.Word{}.Tokens(s)
}

func (c *cellCounter) Name() string { return "cell_counter" }

// paperWorkflow assembles the deployed pipeline's shape — the sure rules,
// the three Figure-10 blockers (title blockers over tok), the generated
// feature set with its case-insensitive extension, a small tree — over
// generated tables of the paper's size: 1,915 reference rows.
func paperWorkflow(t testing.TB, tok tokenize.Tokenizer) (*workflow.Workflow, *table.Table, *table.Table) {
	return paperWorkflowAt(t, tok, 1)
}

// paperWorkflowAt is paperWorkflow over a slice scaled from the paper's.
func paperWorkflowAt(t testing.TB, tok tokenize.Tokenizer, scale float64) (*workflow.Workflow, *table.Table, *table.Table) {
	t.Helper()
	ds, err := umetrics.Generate(umetrics.TestParams(scale))
	if err != nil {
		t.Fatal(err)
	}
	proj, _, err := umetrics.Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := umetrics.AddProjectNumber(proj, ds.USDA); err != nil {
		t.Fatal(err)
	}
	l, r := proj.UMETRICS, proj.USDA
	blockers := []block.Blocker{
		block.AttrEquiv{LeftCol: "AwardNumber", RightCol: "AwardNumber",
			LeftTransform: umetrics.SuffixNormalize, RightTransform: umetrics.NormalizeNumber},
		block.Overlap{LeftCol: "AwardTitle", RightCol: "AwardTitle", Tokenizer: tok, Threshold: 3, Normalize: true},
		block.OverlapCoefficient{LeftCol: "AwardTitle", RightCol: "AwardTitle", Tokenizer: tok, Threshold: 0.7, Normalize: true},
	}
	fig9, err := umetrics.FigureSpec(9).Build(l, r, umetrics.DeployTransforms())
	if err != nil {
		t.Fatal(err)
	}
	sure := fig9.SureRules
	corr := map[string]string{"AwardNumber": "AwardNumber", "AwardTitle": "AwardTitle", "EmployeeName": "EmployeeName"}
	fs, err := feature.Generate(l, r, corr, []string{"AwardNumber", "AwardTitle", "EmployeeName"})
	if err != nil {
		t.Fatal(err)
	}
	if err := feature.AddCaseInsensitive(fs, l, corr, []string{"AwardTitle", "EmployeeName"}); err != nil {
		t.Fatal(err)
	}
	// Train on a slice of the blocked pairs: sure matches against the rest.
	cand, err := block.UnionBlock(l, r, blockers[1])
	if err != nil {
		t.Fatal(err)
	}
	isSure := sure.SureMatches(l, r)
	pairs := cand.Pairs()[:min(400, cand.Len())]
	y := make([]int, len(pairs))
	for i, p := range pairs {
		if isSure.Contains(p) {
			y[i] = 1
		}
	}
	x, err := fs.Vectorize(l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	im, err := feature.FitImputer(x)
	if err != nil {
		t.Fatal(err)
	}
	if x, err = im.Transform(x); err != nil {
		t.Fatal(err)
	}
	data, err := ml.NewDataset(fs.Names(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	m := &ml.DecisionTree{}
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	return &workflow.Workflow{
		Name: "paper-size", SureRules: sure, Blockers: blockers,
		Features: fs, Imputer: im, Matcher: m,
	}, l, r
}

// TestRequestProbesBoundIndexes: New builds what the pipeline needs from
// the reference table — one tokenisation of each title for both title
// blockers — and a request then tokenises its own title, once, and nothing
// of the reference table; its allocations stay under a ceiling that any
// per-request preparation of reference rows breaks.
func TestRequestProbesBoundIndexes(t *testing.T) {
	tok := &cellCounter{}
	w, l, r := paperWorkflow(t, tok)
	tok.cells.Store(0)
	s, err := New(context.Background(), Config{}, w, l, r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	titles := 0
	for i := 0; i < r.Len(); i++ {
		if !r.Get(i, "AwardTitle").IsNull() {
			titles++
		}
	}
	if n := tok.cells.Load(); n != int64(titles) {
		t.Fatalf("New tokenised %d reference titles, want each of the %d once", n, titles)
	}

	candidates := 0
	for i := 0; i < 40; i++ {
		before := tok.cells.Load()
		resp, err := s.matchOne(context.Background(), l.Row(i), false)
		if err != nil || resp.Degraded {
			t.Fatalf("row %d: %+v, %v", i, resp, err)
		}
		candidates += resp.Candidates
		if n := tok.cells.Load() - before; n != 1 {
			t.Fatalf("request %d tokenised %d cells for blocking, want its own title only", i, n)
		}
	}
	if candidates == 0 {
		t.Fatal("fixture: no request reached the learned path")
	}

	// Measured: 468 allocations with everything bound, 848 when the
	// candidates' reference cells are prepared per request, some 30,000
	// when the block indexes are built per request.
	const ceiling = 600
	row := l.Row(0)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.matchOne(context.Background(), row, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("matchOne allocates %.0f times against the %d-row reference table, ceiling %d", allocs, r.Len(), ceiling)
	}
}

// TestConcurrentRequestsShareBlockIndex hits a server nobody has warmed
// with singles, batches and a job at once: every path probes the block
// indexes and feature cells New bound, and every record must get the
// answer an identical server gives it alone (run under -race -count=10
// -cpu 1,2).
func TestConcurrentRequestsShareBlockIndex(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	shapes := []func(string) map[string]any{l0Record, l1Record, l2Record}
	want := make([]string, len(shapes))
	{
		_, ref := newTestServer(t, Config{})
		for k, shape := range shapes {
			single, _ := json.Marshal(map[string]any{"record": shape("ref")})
			st, _, data := postMatch(t, ref.URL, string(single))
			var mr MatchResponse
			if err := json.Unmarshal(data, &mr); st != http.StatusOK || err != nil {
				t.Fatalf("reference single %d: status %d, %v", k, st, err)
			}
			m, _ := json.Marshal(mr.Matches)
			want[k] = string(m)
		}
	}

	_, ts := newTestServer(t, jobConfig(t.TempDir()))
	const goroutines, rounds, size = 8, 5, 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				kinds := make([]int, size)
				records := make([]map[string]any, size)
				for i := range records {
					kinds[i] = (g + round + i) % len(shapes)
					records[i] = shapes[kinds[i]](fmt.Sprintf("g%d-r%d-%d", g, round, i))
				}
				var got []*MatchResponse
				if g%2 == 0 {
					req, _ := json.Marshal(map[string]any{"records": records})
					resp, err := http.Post(ts.URL+"/v1/match/batch", "application/json", bytes.NewReader(req))
					if err != nil {
						t.Error(err)
						return
					}
					var br BatchResponse
					err = json.NewDecoder(resp.Body).Decode(&br)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("goroutine %d round %d: batch status %d, err %v", g, round, resp.StatusCode, err)
						return
					}
					got = br.Results
				} else {
					for _, rec := range records {
						req, _ := json.Marshal(map[string]any{"record": rec})
						resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(req))
						if err != nil {
							t.Error(err)
							return
						}
						mr := &MatchResponse{}
						err = json.NewDecoder(resp.Body).Decode(mr)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK {
							t.Errorf("goroutine %d round %d: single status %d, err %v", g, round, resp.StatusCode, err)
							return
						}
						got = append(got, mr)
					}
				}
				if len(got) != size {
					t.Errorf("goroutine %d round %d: %d answers for %d records", g, round, len(got), size)
					return
				}
				for i, res := range got {
					if m, _ := json.Marshal(res.Matches); string(m) != want[kinds[i]] {
						t.Errorf("goroutine %d round %d record %d: matches %s, alone it gets %s", g, round, i, m, want[kinds[i]])
					}
				}
			}
		}(g)
	}

	// Meanwhile, on this goroutine, a job: its shards run matchSet too.
	job := submitJob(t, ts.URL, jobPayload(6))
	waitJobState(t, ts.URL, job.ID, JobCompleted, 10*time.Second)
	res := decodeResults(t, fetchResults(t, ts.URL, job.ID))
	if len(res.Results) != 6 {
		t.Fatalf("job results carry %d records, want 6", len(res.Results))
	}
	for i, r := range res.Results {
		// jobPayload alternates the l0 and l1 shapes.
		if m, _ := json.Marshal(r.Matches); string(m) != want[i%2] {
			t.Errorf("job record %d: matches %s, alone it gets %s", i, m, want[i%2])
		}
	}
	wg.Wait()
}

// TestReloadIdenticalArtifactKeepsAnswers: reloading the artifact the
// server already runs swaps the matcher and touches nothing bound to the
// reference table — every answer stays byte-identical.
func TestReloadIdenticalArtifactKeepsAnswers(t *testing.T) {
	leakcheck.Check(t)
	path := saveFixtureMatcher(t, t.TempDir(), "model.json")
	w, l, r := fixtureWorkflow(t)
	s, err := New(context.Background(), Config{MatcherPath: path}, w, l, r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	answers := func() []byte {
		var out []byte
		for i := 0; i < l.Len(); i++ {
			resp, err := s.matchOne(context.Background(), l.Row(i), false)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, data...)
		}
		resps, _, _, err := s.matchSet(context.Background(), l, s.breaker, false)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(resps)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, data...)
	}
	before := answers()
	first := s.Artifact()
	art, err := s.Reload(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if art == first || art.Checksum != first.Checksum {
		t.Fatalf("reload of identical bytes: artifact %p -> %p, checksum %s -> %s", first, art, first.Checksum, art.Checksum)
	}
	if after := answers(); !bytes.Equal(before, after) {
		t.Fatalf("answers changed across a reload to the identical artifact:\nbefore %s\n after %s", before, after)
	}
}
