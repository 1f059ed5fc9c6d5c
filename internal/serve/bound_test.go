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

	"emgo/internal/block"
	"emgo/internal/feature"
	"emgo/internal/leakcheck"
	"emgo/internal/ml"
	"emgo/internal/obs"
	"emgo/internal/table"
	"emgo/internal/tokenize"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// matchOne answers one row the way handleMatch does under its HTTP layer:
// a one-row request table through matchSet.
func (s *Server) matchOne(ctx context.Context, row table.Row, wantTrace bool) (*MatchResponse, error) {
	left, err := table.FromRows("request", s.left.Schema(), []table.Row{row})
	if err != nil {
		return nil, err
	}
	resps, _, trace, err := s.matchSet(ctx, left, wantTrace)
	if err != nil {
		return nil, err
	}
	resps[0].Trace = trace
	return &resps[0], nil
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
	cand, err := block.UnionBlockCtx(context.Background(), l, r, blockers[1])
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
	x, err := fs.VectorizeCtx(context.Background(), l, r, pairs)
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
// with singles and batches at once: both paths probe the block
// indexes and feature cells New bound, and every record must get the
// answer an identical server gives it alone (run under -race -count=10
// -cpu 1,2).
func TestConcurrentRequestsShareBlockIndex(t *testing.T) {
	leakcheck.Check(t)
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

	_, ts := newTestServer(t, Config{})
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

	wg.Wait()
}

// TestConcurrentMixedRequestsKeepSerialAnswers: a matchSet pass walks its
// candidate list in scratch pooled on the server, and a request's fixed
// state — wide event, status writer, span slab, body buffer, deadline —
// is a record pooled there too, so a pass or request that takes over
// another's must read nothing the other left. Eight goroutines send
// every record of a paper-shaped slice as singles and in batches of 1 to
// 7, interleaved, every third window asking for its trace, to a server
// logging every request. Each answer — candidates, vetoed, matches and
// scores, all but elapsed_ms and the trace — is byte for byte what the
// record got alone, asked serially; each trace is that request's own
// serve.match tree (its record count, and its candidates on
// serve.block); and the log has one line per request ID, with that
// request's counts (make race-cpu runs this at 1, 2 and 4 CPUs, and ten
// times over: a record used after it went back to its free list races
// only when a later taker really does run at once).
func TestConcurrentMixedRequestsKeepSerialAnswers(t *testing.T) {
	leakcheck.Check(t)
	w, l, r := paperWorkflowAt(t, tokenize.Word{}, 0.15)
	log := &syncBuffer{}
	_, ts := serveWorkflow(t, Config{AccessLog: log, AccessSampleN: 1}, w, l, r)
	records := make([]map[string]any, l.Len())
	for i := range records {
		records[i] = rowRecord(l, i)
	}
	// render is an answer's bytes without its wall time and trace.
	render := func(mr *MatchResponse) string {
		mr.ElapsedMS, mr.Trace = 0, nil
		data, err := json.Marshal(mr)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	serial := make([]string, len(records))
	learned := 0
	for i, rec := range records {
		var mr MatchResponse
		postJSON(t, ts.URL+"/v1/match", map[string]any{"record": rec}, &mr)
		if mr.Candidates > 0 {
			learned++
		}
		serial[i] = render(&mr)
	}
	if learned == 0 || learned == len(records) {
		t.Fatalf("fixture: %d of %d records have candidates; want some with and some without", learned, len(records))
	}

	// post sends body under id and decodes a 200 answer into into.
	post := func(path, id string, body, into any) error {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(data))
		if err != nil {
			return err
		}
		req.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: status %d", path, id, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(into)
	}
	// check holds one request's answers and trace to its records alone,
	// and notes the counts its log line must carry.
	type counts struct{ records, candidates int }
	var mu sync.Mutex
	sent := map[string]counts{}
	check := func(id string, idx []int, got []*MatchResponse, traced bool, trace json.RawMessage) {
		cands := 0
		for j, mr := range got {
			cands += mr.Candidates
			if a := render(mr); a != serial[idx[j]] {
				t.Errorf("%s, record %d: answered %s, alone %s", id, idx[j], a, serial[idx[j]])
			}
		}
		if traced != (trace != nil) {
			t.Errorf("%s: asked for a trace %v, got %s", id, traced, trace)
		}
		if traced {
			var root obs.SpanData
			if err := json.Unmarshal(trace, &root); err != nil {
				t.Errorf("%s: trace %s: %v", id, trace, err)
			}
			var blocked int64 = -1
			for _, c := range root.Children {
				if c.Name == "serve.block" {
					blocked = c.Items
				}
			}
			if root.Name != "serve.match" || root.Items != int64(len(idx)) || blocked != int64(cands) {
				t.Errorf("%s: trace %s is not this request's: want serve.match over %d records, %d candidates blocked", id, trace, len(idx), cands)
			}
		}
		mu.Lock()
		sent[id] = counts{len(idx), cands}
		mu.Unlock()
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutine g starts at its own offset and sends windows of
			// 1 to 7 records, a batch or (odd g, odd window) singles.
			for lo, k := g*len(records)/goroutines, 0; k < len(records); k++ {
				size := 1 + (g+k)%7
				idx := make([]int, size)
				batch := make([]map[string]any, size)
				for j := range idx {
					idx[j] = (lo + j) % len(records)
					batch[j] = records[idx[j]]
				}
				lo += size
				k += size - 1
				traced := k%3 == 0
				if g%2 == 1 && k%2 == 1 {
					for j, rec := range batch {
						id := fmt.Sprintf("g%d-k%d-%d", g, k, j)
						mr := &MatchResponse{}
						if err := post("/v1/match", id, map[string]any{"record": rec, "trace": traced}, mr); err != nil {
							t.Error(err)
							return
						}
						check(id, idx[j:j+1], []*MatchResponse{mr}, traced, mr.Trace)
					}
					continue
				}
				id := fmt.Sprintf("g%d-k%d", g, k)
				var br BatchResponse
				if err := post("/v1/match/batch", id, map[string]any{"records": batch, "trace": traced}, &br); err != nil {
					t.Error(err)
					return
				}
				if len(br.Results) != size {
					t.Errorf("%s: %d results for %d records", id, len(br.Results), size)
					return
				}
				check(id, idx, br.Results, traced, br.Trace)
			}
		}(g)
	}
	wg.Wait()

	evs := log.waitEvents(t, len(records)+len(sent))
	lines := map[string]int{}
	for _, ev := range evs {
		id, _ := ev["request_id"].(string)
		lines[id]++
		if want, ok := sent[id]; ok {
			gotRecords, _ := ev["records"].(float64)
			gotCands, _ := ev["candidates"].(float64)
			if int(gotRecords) != want.records || int(gotCands) != want.candidates {
				t.Errorf("%s: logged %v records, %v candidates; it sent %d and got %d", id, ev["records"], ev["candidates"], want.records, want.candidates)
			}
		}
	}
	for id := range sent {
		if lines[id] != 1 {
			t.Errorf("%s: %d access-log lines, want 1", id, lines[id])
		}
	}
	if want := len(records) + len(sent); len(evs) != want {
		t.Errorf("%d access-log lines for %d requests", len(evs), want)
	}
}
