package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"emgo/internal/block"
	"emgo/internal/fault"
	"emgo/internal/leakcheck"
	"emgo/internal/ml"
	"emgo/internal/table"
	"emgo/internal/tokenize"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// A deployed feature set computes what its matcher's nodes test. The tests
// below hold the server to the consequence: the set belongs to the matcher
// that is asked — the artifact's, not the spec's — and what a pruned server
// answers is what a server computing every feature answers.

// stump is a one-split tree over names: match when feature is above
// threshold.
func stump(t testing.TB, names []string, feature string, threshold float64) *ml.DecisionTree {
	t.Helper()
	for k, name := range names {
		if name == feature {
			tree, err := ml.ImportTree(&ml.TreeSpec{Features: names, Root: &ml.NodeSpec{
				Feature: k, Threshold: threshold,
				Left:  &ml.NodeSpec{Leaf: true, Label: 0, Proba: 0.125},
				Right: &ml.NodeSpec{Leaf: true, Label: 1, Proba: 0.875},
			}})
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}
	}
	t.Fatalf("no feature %q", feature)
	return nil
}

// deployed packages w's features and imputer with m as the case study
// does and builds the spec against the tables: the workflow a deployment
// runs, its feature set restricted to what m reads.
func deployed(t testing.TB, w *workflow.Workflow, m ml.Matcher, l, r *table.Table) *workflow.Workflow {
	t.Helper()
	spec, err := umetrics.FigureSpec(10).Package(w.Features, w.Imputer, m)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := spec.Build(l, r, umetrics.DeployTransforms())
	if err != nil {
		t.Fatal(err)
	}
	return dw
}

// fullVectors is a server answering with m computing every feature of every
// pair: deployed's workflow with the generated feature set put back, and m
// behind the opaque wrapper, which by ml.ReadSet's rule reads everything —
// so its deployment restricts nothing. The wrapper cannot be exported, so
// it goes in the way a reload puts a matcher in: deployed, then stored.
func fullVectors(t testing.TB, cfg Config, w *workflow.Workflow, m *ml.DecisionTree, l, r *table.Table) *Server {
	t.Helper()
	dw := deployed(t, w, m, l, r)
	dw.Features = w.Features
	s := newServer(t, cfg, dw, l, r)
	art := &Artifact{Matcher: opaqueTree{m}, Checksum: s.Artifact().Checksum, Path: specArtifactPath, LoadedAt: time.Now()}
	var err error
	if art.deployment, err = dw.Deploy(context.Background(), art.Matcher, r); err != nil {
		t.Fatal(err)
	}
	s.live.Store(art)
	return s
}

func saveMatcher(t testing.TB, m ml.Matcher) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), m.Name()+".json")
	if err := ml.SaveMatcherFile(path, m); err != nil {
		t.Fatal(err)
	}
	return path
}

func newServer(t testing.TB, cfg Config, w *workflow.Workflow, l, r *table.Table) *Server {
	t.Helper()
	s, err := New(context.Background(), cfg, w, l, r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func newHTTP(t testing.TB, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// answersOf is every row of l answered alone and then the whole table in
// one pass, as JSON — matches, sources and scores.
func answersOf(t testing.TB, s *Server, l *table.Table) []string {
	t.Helper()
	out := make([]string, 0, 2*l.Len())
	render := func(resp *MatchResponse) {
		if resp.Degraded {
			t.Fatalf("answered degraded (%s)", resp.DegradedReason)
		}
		data, err := json.Marshal(resp.Matches)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(data))
	}
	for i := 0; i < l.Len(); i++ {
		resp, err := s.matchOne(context.Background(), l.Row(i), false)
		if err != nil {
			t.Fatal(err)
		}
		render(resp)
	}
	resps, _, _, err := s.matchSet(context.Background(), l, s.breaker, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, resp := range resps {
		render(resp)
	}
	return out
}

// deploysReadSet fails unless s's live deployment computes what m reads
// by ml.ReadSet and nothing else: over one pair per left row its vectors
// are, NaN for NaN, those of w's generated set restricted to that read set.
func deploysReadSet(t testing.TB, s *Server, w *workflow.Workflow, m ml.Matcher, l *table.Table) {
	t.Helper()
	pairs := make([]block.Pair, l.Len())
	for i := range pairs {
		pairs[i] = block.Pair{A: i, B: i % s.right.Len()}
	}
	got, err := s.live.Load().deployment.Features.Vectorize(l, s.right, pairs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Features.Restrict(ml.ReadSet(m, w.Features.Len())).Vectorize(l, s.right, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for k, v := range want[i] {
			if g := got[i][k]; g != v && !(math.IsNaN(g) && math.IsNaN(v)) {
				t.Fatalf("the live deployment computes %s = %v on pair %v, where %s's read set %v gives %v",
					w.Features.Features[k].Name, g, pairs[i], m.Name(), readNames(w, m), v)
			}
		}
	}
}

// readNames is the names of the features m reads.
func readNames(w *workflow.Workflow, m ml.Matcher) []string {
	var names []string
	for k, read := range ml.ReadSet(m, w.Features.Len()) {
		if read {
			names = append(names, w.Features.Features[k].Name)
		}
	}
	return names
}

// titleStumps are two trees over the paper workflow's features that share
// no feature, nor a cell group: one tests the folded title's words, the
// other its 3-grams.
func titleStumps(t testing.TB, w *workflow.Workflow) (a, b *ml.DecisionTree) {
	names := w.Features.Names()
	return stump(t, names, "AwardTitle_jaccard_word_lower", 0.8), stump(t, names, "AwardTitle_jaccard_qgram3_lower", 0.45)
}

// TestArtifactReadSetFollowsLoadedMatcher: a server started with -matcher
// serves a tree other than the one its spec embeds, and the spec's
// workflow computes only what the spec's tree reads. Were the loaded tree
// asked over that set, the feature it tests would be the imputer's mean on
// every pair. Each way round, every answer — scores included — is that of
// a server computing all features for the loaded tree, and the live
// deployment computes the loaded tree's features, not the spec's.
func TestArtifactReadSetFollowsLoadedMatcher(t *testing.T) {
	leakcheck.Check(t)
	w, l, r := paperWorkflowAt(t, tokenize.Word{}, 0.15)
	a, b := titleStumps(t, w)
	var seen []string
	for _, c := range []struct{ spec, loaded *ml.DecisionTree }{{a, b}, {b, a}} {
		s := newServer(t, Config{MatcherPath: saveMatcher(t, c.loaded)}, deployed(t, w, c.spec, l, r), l, r)
		ref := fullVectors(t, Config{}, w, c.loaded, l, r)
		got, want := answersOf(t, s, l), answersOf(t, ref, l)
		learned := 0
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("spec tree reads %v, loaded tree %v: answer %d is %s, with full vectors %s",
					readNames(w, c.spec), readNames(w, c.loaded), i, got[i], want[i])
			}
			learned += strings.Count(want[i], `"source":"matcher"`)
		}
		if learned == 0 {
			t.Fatal("fixture: no learned match; the comparison needs some")
		}
		deploysReadSet(t, s, w, c.loaded, l)
		deploysReadSet(t, ref, w, opaqueTree{c.loaded}, l)
		seen = append(seen, strings.Join(want, "\n"))
	}
	if seen[0] == seen[1] {
		t.Fatal("fixture: the two trees answer alike; the comparison could not tell them apart")
	}
}

// TestReloadRebindsForNewReadSet: a reload to a tree that reads other
// features builds and binds that tree's set before the swap. Under
// requests in flight (run with -race), every answer is one matcher's or
// the other's whole — never one tree over the other's cells — and after
// each reload it is the new one's; a reload whose bind fails leaves the
// old matcher, set and cells serving; and the cells of a replaced artifact
// are garbage: the heap does not grow over twenty alternating reloads.
func TestReloadRebindsForNewReadSet(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	w, l, r := paperWorkflowAt(t, tokenize.Word{}, 0.15)
	a, b := titleStumps(t, w)
	pathA, pathB := saveMatcher(t, a), saveMatcher(t, b)
	dw := deployed(t, w, a, l, r)
	wantA := answersOf(t, newServer(t, Config{MatcherPath: pathA}, deployed(t, w, a, l, r), l, r), l)
	wantB := answersOf(t, newServer(t, Config{MatcherPath: pathB}, deployed(t, w, a, l, r), l, r), l)
	s := newServer(t, Config{MatcherPath: pathA}, dw, l, r)
	same := func(what string, got, want []string) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: answer %d is %s, a fresh server's %s", what, i, got[i], want[i])
			}
		}
	}
	same("before any reload", answersOf(t, s, l), wantA)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i = (i + 1) % l.Len() {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := s.matchOne(context.Background(), l.Row(i), false)
				if err != nil {
					t.Error(err)
					return
				}
				data, _ := json.Marshal(resp.Matches)
				if got := string(data); got != wantA[i] && got != wantB[i] {
					t.Errorf("in flight: row %d answered %s; tree a answers %s, tree b %s", i, got, wantA[i], wantB[i])
					return
				}
			}
		}(g)
	}
	reload := func(path string) {
		t.Helper()
		if _, err := s.Reload(context.Background(), path); err != nil {
			t.Fatal(err)
		}
	}
	reload(pathB)
	same("after the reload to b", answersOf(t, s, l), wantB)

	live := s.Artifact()
	fault.Enable("feature.bind", fault.Plan{})
	_, err := s.Reload(context.Background(), pathA)
	fault.Reset()
	if err == nil || !strings.Contains(err.Error(), "bind feature cells") {
		t.Fatalf("reload with a failing bind: %v, want a bind failure", err)
	}
	if s.Artifact() != live {
		t.Fatal("a failed bind swapped the artifact")
	}
	same("after the failed reload", answersOf(t, s, l), wantB)

	reload(pathA)
	same("after the reload back to a", answersOf(t, s, l), wantA)
	close(stop)
	wg.Wait()

	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for n := 0; n < 10; n++ {
		reload(pathB)
		reload(pathA)
	}
	// Twenty replaced artifacts kept reachable are about 1.7 MB on this
	// slice; the race detector's shadow state moves HeapAlloc by more.
	if after := heap(); !raceEnabled && after > before+256<<10 {
		t.Fatalf("heap grew %d KB over 20 alternating reloads: replaced artifacts' cells are still reachable", (after-before)>>10)
	}
	same("after 20 more reloads", answersOf(t, s, l), wantA)
}

// opaqueTree hides a tree's kind from ml.ReadSet, by whose rule a matcher
// of any other kind reads every feature.
type opaqueTree struct{ tree *ml.DecisionTree }

func (o opaqueTree) Name() string              { return "opaque" }
func (o opaqueTree) Fit(ds *ml.Dataset) error  { return o.tree.Fit(ds) }
func (o opaqueTree) Predict(x []float64) int   { return o.tree.Predict(x) }
func (o opaqueTree) Proba(x []float64) float64 { return o.tree.Proba(x) }

// TestPrunedEqualsFullPerRecord: on the TestOfflineEqualsOnlineModes
// slice, the fitted tree deployed as itself — its set pruned to the
// features it tests — and the same tree behind an opaque matcher, which
// by rule reads everything, agree on every record in every mode: the
// offline run's learned and final pairs, and each record's matches, sources
// and scores from /v1/match, from /v1/match/batch and from a job's shards.
func TestPrunedEqualsFullPerRecord(t *testing.T) {
	leakcheck.Check(t)
	w, l, r := paperWorkflowAt(t, tokenize.Word{}, 0.15)
	tree := w.Matcher.(*ml.DecisionTree)
	read := readNames(w, tree)
	if len(read) == 0 || len(read) >= w.Features.Len() {
		t.Fatalf("fixture: the tree reads %d of %d features; the comparison needs a proper subset", len(read), w.Features.Len())
	}
	pruned := deployed(t, w, tree, l, r)
	full := deployed(t, w, tree, l, r)
	full.Features, full.Matcher = w.Features, opaqueTree{tree}

	offline := func(w *workflow.Workflow) (learned, final string) {
		res, err := w.RunCtx(context.Background(), l, r, workflow.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Learned.Len() == 0 {
			t.Fatal("fixture: no learned match")
		}
		a, _ := json.Marshal(res.Learned.Sorted())
		b, _ := json.Marshal(res.Final.Sorted())
		return string(a), string(b)
	}
	pl, pf := offline(pruned)
	fl, ff := offline(full)
	if pl != fl || pf != ff {
		t.Fatalf("offline: pruned run learned %s final %s, full run learned %s final %s", pl, pf, fl, ff)
	}

	const shard = 16
	modes := func(s *Server) (single, batch, job []string) {
		ts := newHTTP(t, s)
		records := make([]map[string]any, l.Len())
		for i := range records {
			records[i] = rowRecord(l, i)
		}
		render := func(ms []Match) string {
			data, err := json.Marshal(ms)
			if err != nil {
				t.Fatal(err)
			}
			return string(data)
		}
		for _, rec := range records {
			var mr MatchResponse
			postJSON(t, ts+"/v1/match", map[string]any{"record": rec}, &mr)
			if mr.Degraded {
				t.Fatalf("answered degraded (%s)", mr.DegradedReason)
			}
			single = append(single, render(mr.Matches))
		}
		for lo := 0; lo < len(records); lo += DefaultMaxBatchRecords {
			var br BatchResponse
			postJSON(t, ts+"/v1/match/batch", map[string]any{"records": records[lo:min(lo+DefaultMaxBatchRecords, len(records))]}, &br)
			for _, mr := range br.Results {
				batch = append(batch, render(mr.Matches))
			}
		}
		body, err := json.Marshal(map[string]any{"records": records})
		if err != nil {
			t.Fatal(err)
		}
		st := submitJob(t, ts, string(body))
		if st := waitJobState(t, ts, st.ID, JobCompleted, 60*time.Second); st.Shards < 2 {
			t.Fatalf("job ran as %d shard(s); the comparison needs several", st.Shards)
		}
		for _, res := range decodeResults(t, fetchResults(t, ts, st.ID)).Results {
			job = append(job, render(res.Matches))
		}
		return single, batch, job
	}
	jobs := func() JobConfig { return JobConfig{Dir: t.TempDir(), ShardSize: shard, Workers: 1} }

	ps := newServer(t, Config{Jobs: jobs()}, pruned, l, r)
	fs := fullVectors(t, Config{Jobs: jobs()}, w, tree, l, r)

	pSingle, pBatch, pJob := modes(ps)
	fSingle, fBatch, fJob := modes(fs)
	scored := 0
	for i := 0; i < l.Len(); i++ {
		for _, m := range []struct {
			mode         string
			pruned, full []string
		}{{"/v1/match", pSingle, fSingle}, {"/v1/match/batch", pBatch, fBatch}, {"job shard", pJob, fJob}} {
			if len(m.pruned) != l.Len() || len(m.full) != l.Len() {
				t.Fatalf("%s: %d pruned and %d full answers for %d records", m.mode, len(m.pruned), len(m.full), l.Len())
			}
			if m.pruned[i] != m.full[i] {
				t.Errorf("record %d, %s: pruned %s, full %s", i, m.mode, m.pruned[i], m.full[i])
			}
			if m.pruned[i] != pSingle[i] {
				t.Errorf("record %d: %s answers %s, /v1/match %s", i, m.mode, m.pruned[i], pSingle[i])
			}
		}
		scored += strings.Count(pSingle[i], `"score":`)
	}
	if scored == 0 {
		t.Fatal("fixture: no scored match; the comparison needs scores")
	}
	deploysReadSet(t, ps, w, tree, l)
	deploysReadSet(t, fs, w, opaqueTree{tree}, l)
}
