package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"emgo/internal/block"
	"emgo/internal/leakcheck"
	"emgo/internal/ml"
	"emgo/internal/table"
	"emgo/internal/tokenize"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// A deployed feature set computes what its matcher's nodes test. The tests
// below hold the server to the consequence: the set belongs to the matcher
// that is asked — the served workflow's, whatever tree its spec packaged —
// and what a pruned server answers is what a server computing every
// feature answers.

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
// does and builds the spec against the tables: the full-width workflow a
// deployment narrows to what m reads.
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
// so its deployment narrows nothing.
func fullVectors(t testing.TB, cfg Config, w *workflow.Workflow, m *ml.DecisionTree, l, r *table.Table) *Server {
	t.Helper()
	dw := deployed(t, w, m, l, r)
	dw.Features, dw.Matcher = w.Features, opaqueTree{m}
	return newServer(t, cfg, dw, l, r)
}

func newServer(t testing.TB, cfg Config, w *workflow.Workflow, l, r *table.Table) *Server {
	t.Helper()
	s, err := New(context.Background(), cfg, w, l, r)
	if err != nil {
		t.Fatal(err)
	}
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
	resps, _, _, err := s.matchSet(context.Background(), l, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resps {
		render(&resps[i])
	}
	return out
}

// deploysReadSet fails unless s's deployment computes what m reads
// by ml.ReadSet and nothing else: its vectors hold exactly those features,
// in order, and over one pair per left row each column is, NaN for NaN,
// the same-named feature of w's generated set.
func deploysReadSet(t testing.TB, s *Server, w *workflow.Workflow, m ml.Matcher, l *table.Table) {
	t.Helper()
	pairs := make([]block.Pair, l.Len())
	for i := range pairs {
		pairs[i] = block.Pair{A: i, B: i % s.right.Len()}
	}
	live := s.deployment.Features
	if names := live.Names(); !slices.Equal(names, readNames(w, m)) {
		t.Fatalf("the deployment computes %v, where %s's read set is %v", names, m.Name(), readNames(w, m))
	}
	got, err := live.VectorizeCtx(context.Background(), l, s.right, pairs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Features.VectorizeCtx(context.Background(), l, s.right, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for c, name := range live.Names() {
		k := slices.Index(w.Features.Names(), name)
		for i := range want {
			if g, v := got[i][c], want[i][k]; g != v && !(math.IsNaN(g) && math.IsNaN(v)) {
				t.Fatalf("the deployment computes %s = %v on pair %v, the generated set %v", name, g, pairs[i], v)
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

// TestArtifactReadSetFollowsLoadedMatcher: New is handed a workflow built
// from a spec packaging one tree, with its matcher swapped for another that
// reads other features. Were the loaded tree asked over the features the
// spec's tree reads, the feature it tests would be the imputer's mean on
// every pair. Each way round, every answer — scores included — is that of
// a server computing all features for the loaded tree, and the deployment
// computes the loaded tree's features, not the spec's.
func TestArtifactReadSetFollowsLoadedMatcher(t *testing.T) {
	leakcheck.Check(t)
	w, l, r := paperWorkflowAt(t, tokenize.Word{}, 0.15)
	a, b := titleStumps(t, w)
	var seen []string
	for _, c := range []struct{ spec, loaded *ml.DecisionTree }{{a, b}, {b, a}} {
		dw := deployed(t, w, c.spec, l, r)
		dw.Matcher = c.loaded
		s := newServer(t, Config{}, dw, l, r)
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
// and scores from /v1/match and from /v1/match/batch.
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

	modes := func(s *Server) (single, batch []string) {
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
		return single, batch
	}

	ps := newServer(t, Config{}, pruned, l, r)
	fs := fullVectors(t, Config{}, w, tree, l, r)

	pSingle, pBatch := modes(ps)
	fSingle, fBatch := modes(fs)
	scored := 0
	for i := 0; i < l.Len(); i++ {
		for _, m := range []struct {
			mode         string
			pruned, full []string
		}{{"/v1/match", pSingle, fSingle}, {"/v1/match/batch", pBatch, fBatch}} {
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
