package workflow

import (
	"context"
	"strings"
	"testing"

	"emgo/internal/block"
	"emgo/internal/feature"
	"emgo/internal/ml"
	"emgo/internal/rules"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// fixture builds small left/right tables with one sure match (equal
// number), one similar-title pair, and one similar-title false positive
// that a negative rule should veto.
func fixture(t *testing.T) (*table.Table, *table.Table) {
	t.Helper()
	schema := func() *table.Schema {
		return table.MustSchema(
			table.Field{Name: "ID", Kind: table.String},
			table.Field{Name: "Num", Kind: table.String},
			table.Field{Name: "Title", Kind: table.String},
		)
	}
	l := table.New("L", schema())
	l.MustAppend(table.Row{table.S("l0"), table.S("2008-11111-11111"), table.S("corn fungicide guidelines north central")})
	l.MustAppend(table.Row{table.S("l1"), table.Null(table.String), table.S("swamp dodder ecology management carrot")})
	l.MustAppend(table.Row{table.S("l2"), table.S("WIS00001"), table.S("dairy cattle genetics study wisconsin")})

	r := table.New("R", schema())
	r.MustAppend(table.Row{table.S("r0"), table.S("2008-11111-11111"), table.S("corn fungicide guidelines north central")})
	r.MustAppend(table.Row{table.S("r1"), table.Null(table.String), table.S("swamp dodder ecology management carrot")})
	r.MustAppend(table.Row{table.S("r2"), table.S("WIS99999"), table.S("dairy cattle genetics study wisconsin")})
	return l, r
}

// trained builds a feature set, imputer, and decision tree fitted to
// prefer high title similarity.
func trained(t *testing.T, l, r *table.Table) (*feature.Set, *feature.Imputer, ml.Matcher) {
	t.Helper()
	corr := map[string]string{"Title": "Title"}
	fs, err := feature.Generate(l, r, corr, []string{"Title"})
	if err != nil {
		t.Fatal(err)
	}
	// Train on synthetic labeled pairs: same titles match.
	pairs := []block.Pair{{A: 0, B: 0}, {A: 1, B: 1}, {A: 0, B: 1}, {A: 1, B: 0}, {A: 2, B: 0}, {A: 2, B: 2}}
	y := []int{1, 1, 0, 0, 0, 1}
	x, err := fs.VectorizeCtx(context.Background(), l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	im, err := feature.FitImputer(x)
	if err != nil {
		t.Fatal(err)
	}
	x, err = im.Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ml.NewDataset(fs.Names(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	m := &ml.DecisionTree{}
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	return fs, im, m
}

func TestWorkflowFullShape(t *testing.T) {
	l, r := fixture(t)
	m1, err := rules.NewEqual("M1", l, "Num", nil, r, "Num", nil, rules.Match)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := rules.NewComparableMismatch("neg", l, "Num", nil, r, "Num", nil, rules.Set{"XXX#####"})
	if err != nil {
		t.Fatal(err)
	}
	fs, im, matcher := trained(t, l, r)

	w := &Workflow{
		Name:      "test",
		SureRules: rules.NewEngine(m1),
		Blockers: []block.Blocker{
			block.Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true},
		},
		Features: fs, Imputer: im, Matcher: matcher,
		NegativeRules: rules.NewEngine(neg),
	}
	res, err := w.Run(l, r)
	if err != nil {
		t.Fatal(err)
	}
	// Sure: the equal-number pair (0,0).
	if res.Sure.Len() != 1 || !res.Sure.Contains(block.Pair{A: 0, B: 0}) {
		t.Fatalf("sure: %v", res.Sure.Pairs())
	}
	// Candidates exclude the sure match.
	if res.Candidates.Contains(block.Pair{A: 0, B: 0}) {
		t.Fatal("candidates must exclude sure matches")
	}
	// Learner should find the identical-title pairs (1,1) and (2,2).
	if !res.Learned.Contains(block.Pair{A: 1, B: 1}) {
		t.Fatalf("learner missed (1,1): %v", res.Learned.Pairs())
	}
	// Negative rule: (2,2) has comparable WIS numbers that differ → veto.
	if res.Vetoed != 1 {
		t.Fatalf("vetoed = %d, learned = %v", res.Vetoed, res.Learned.Pairs())
	}
	if res.Final.Contains(block.Pair{A: 2, B: 2}) {
		t.Fatal("vetoed pair must not be in final")
	}
	// Final = sure + surviving learned.
	if !res.Final.Contains(block.Pair{A: 0, B: 0}) || !res.Final.Contains(block.Pair{A: 1, B: 1}) {
		t.Fatalf("final: %v", res.Final.Pairs())
	}
	// The report must record all six steps, each ok.
	want := "sure_matches:ok blocked:ok candidates:ok learned:ok vetoed:ok final:ok"
	if got := strings.Join(outcomeSequence(res.Report), " "); got != want {
		t.Fatalf("stages = %s, want %s", got, want)
	}
}

func TestWorkflowRulesOnly(t *testing.T) {
	l, r := fixture(t)
	m1, _ := rules.NewEqual("M1", l, "Num", nil, r, "Num", nil, rules.Match)
	w := &Workflow{Name: "iris-like", SureRules: rules.NewEngine(m1)}
	res, err := w.Run(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Len() != 1 || res.Learned.Len() != 0 {
		t.Fatalf("rules-only: final=%d learned=%d", res.Final.Len(), res.Learned.Len())
	}
}

func TestWorkflowMatcherWithoutFeaturesErrors(t *testing.T) {
	l, r := fixture(t)
	_, _, matcher := trained(t, l, r)
	w := &Workflow{
		Name:    "bad",
		Matcher: matcher,
		Blockers: []block.Blocker{
			block.Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 1, Normalize: true},
		},
	}
	if _, err := w.Run(l, r); err == nil {
		t.Fatal("matcher without features/imputer should error")
	}
}

func TestWorkflowBlockerErrorPropagates(t *testing.T) {
	l, r := fixture(t)
	w := &Workflow{
		Name:     "bad-blocker",
		Blockers: []block.Blocker{block.Overlap{LeftCol: "Nope", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 1}},
	}
	if _, err := w.Run(l, r); err == nil {
		t.Fatal("blocker error should propagate")
	}
}

func TestMatchIDs(t *testing.T) {
	l, r := fixture(t)
	m1, _ := rules.NewEqual("M1", l, "Num", nil, r, "Num", nil, rules.Match)
	w := &Workflow{Name: "ids", SureRules: rules.NewEngine(m1)}
	res, err := w.Run(l, r)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := res.MatchIDs("ID", "ID")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != (IDPair{Left: "l0", Right: "r0"}) {
		t.Fatalf("ids: %v", ids)
	}
	if _, err := res.MatchIDs("Nope", "ID"); err == nil {
		t.Fatal("unknown column should error")
	}
	if _, err := res.MatchIDs("ID", "Nope"); err == nil {
		t.Fatal("unknown right column should error")
	}
}

func TestMergeIDs(t *testing.T) {
	a := []IDPair{{Left: "1", Right: "x"}, {Left: "2", Right: "y"}}
	b := []IDPair{{Left: "2", Right: "y"}, {Left: "3", Right: "z"}}
	got := MergeIDs(a, b)
	if len(got) != 3 {
		t.Fatalf("merged: %v", got)
	}
	if got[0].Left != "1" || got[2].Left != "3" {
		t.Fatal("merge order wrong")
	}
	if len(MergeIDs()) != 0 {
		t.Fatal("empty merge")
	}
}
