package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"emgo/internal/block"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/rules"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// figure1Tables builds the paper's Figure 1 example plus enough synthetic
// rows to train on.
func figure1Tables(t *testing.T) (*table.Table, *table.Table) {
	t.Helper()
	schema := func() *table.Schema {
		return table.MustSchema(
			table.Field{Name: "Name", Kind: table.String},
			table.Field{Name: "City", Kind: table.String},
			table.Field{Name: "State", Kind: table.String},
		)
	}
	a := table.New("A", schema())
	a.MustAppend(table.Row{table.S("Dave Smith"), table.S("Madison"), table.S("WI")})
	a.MustAppend(table.Row{table.S("Joe Wilson"), table.S("San Jose"), table.S("CA")})
	a.MustAppend(table.Row{table.S("Dan Smith"), table.S("Middleton"), table.S("WI")})

	b := table.New("B", schema())
	b.MustAppend(table.Row{table.S("David D. Smith"), table.S("Madison"), table.S("WI")})
	b.MustAppend(table.Row{table.S("Daniel W. Smith"), table.S("Middleton"), table.S("WI")})
	return a, b
}

// richTables builds a larger two-table fixture with known matches for the
// end-to-end flow.
func richTables(t *testing.T) (*table.Table, *table.Table, map[block.Pair]bool) {
	t.Helper()
	schema := func() *table.Schema {
		return table.MustSchema(
			table.Field{Name: "ID", Kind: table.String},
			table.Field{Name: "Title", Kind: table.String},
			table.Field{Name: "Code", Kind: table.String},
		)
	}
	base := []string{
		"corn fungicide guidelines north central states",
		"swamp dodder ecology management carrot production",
		"dairy cattle genetics improvement wisconsin herds",
		"soil nitrogen runoff watershed modeling study",
		"cranberry pest management integrated program",
		"wheat rust resistance breeding markers",
		"maple syrup production economics analysis",
		"soybean aphid biocontrol field trials",
	}
	l := table.New("L", schema())
	r := table.New("R", schema())
	truth := map[block.Pair]bool{}
	for i, title := range base {
		code := "C" + string(rune('0'+i))
		l.MustAppend(table.Row{
			table.S(string(rune('a' + i))),
			table.S(strings.ToUpper(title)),
			table.S(code),
		})
		// Matching right record: same title, title case. Half the right
		// records are missing the code, so only titles can match them
		// (the learner's job).
		rightCode := table.S(code)
		if i%2 == 1 {
			rightCode = table.Null(table.String)
		}
		r.MustAppend(table.Row{
			table.S(string(rune('A' + i))),
			table.S(title),
			rightCode,
		})
		truth[block.Pair{A: i, B: i}] = true
	}
	// Non-matching extra right rows sharing a couple of title tokens with
	// real grants (the blocking collisions the learner must reject).
	for i, title := range []string{
		"corn rootworm management field study",
		"dairy herds nutrition economics survey",
		"watershed runoff phosphorus monitoring",
		"wheat breeding winter trials",
	} {
		r.MustAppend(table.Row{
			table.S("X" + string(rune('0'+i))),
			table.S(title),
			table.Null(table.String),
		})
	}
	return l, r, truth
}

func TestNewProjectValidation(t *testing.T) {
	if _, err := NewProject("x", nil, nil, 1); err == nil {
		t.Fatal("nil tables should error")
	}
}

func TestProjectProfile(t *testing.T) {
	a, b := figure1Tables(t)
	p, err := NewProject("fig1", a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "fig1" || p.Left() != a || p.Right() != b {
		t.Fatal("accessors")
	}
	lr, rr := p.Profile()
	if lr.Rows != 3 || rr.Rows != 2 {
		t.Fatal("profiles wrong")
	}
}

func TestProjectGuardRails(t *testing.T) {
	a, b := figure1Tables(t)
	p, _ := NewProject("fig1", a, b, 1)
	if _, err := p.Block(context.Background()); err == nil {
		t.Fatal("Block without blockers should error")
	}
	if _, err := p.SamplePairs(5); err == nil {
		t.Fatal("SamplePairs before Block should error")
	}
	if _, err := p.DebugBlocking(map[string]string{"Name": "Name"}, 5); err == nil {
		t.Fatal("DebugBlocking before Block should error")
	}
	if _, err := p.SelectMatcher(context.Background(), 2); err == nil {
		t.Fatal("SelectMatcher without features should error")
	}
	if err := p.Train("decision_tree"); err == nil {
		t.Fatal("Train without features should error")
	}
	if _, err := p.Match(context.Background()); err == nil {
		t.Fatal("Match without blockers should error")
	}
}

func TestProjectBlockCancelled(t *testing.T) {
	a, b := figure1Tables(t)
	p, _ := NewProject("fig1", a, b, 1)
	p.AddBlocker(block.Overlap{LeftCol: "Name", RightCol: "Name", Tokenizer: tokenize.Word{}, Threshold: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Block(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p.Candidates() != nil {
		t.Fatal("a cancelled Block stored a candidate set")
	}
}

// TestProjectSetCandidates: a set over the project's tables replaces the
// candidates; one over other tables is refused and leaves them as they
// were.
func TestProjectSetCandidates(t *testing.T) {
	a, b := figure1Tables(t)
	p, _ := NewProject("fig1", a, b, 1)
	p.AddBlocker(block.Overlap{LeftCol: "Name", RightCol: "Name", Tokenizer: tokenize.Word{}, Threshold: 1})
	blocked, err := p.Block(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*block.CandidateSet{
		"nil":             nil,
		"swapped tables":  block.NewCandidateSet(b, a),
		"other left side": block.NewCandidateSet(b, b),
	} {
		if err := p.SetCandidates(c); err == nil {
			t.Errorf("%s: SetCandidates took a set over other tables", name)
		}
		if p.Candidates() != blocked {
			t.Fatalf("%s: a refused set replaced the candidates", name)
		}
	}
	mine := block.NewCandidateSet(a, b)
	mine.Add(block.Pair{A: 0, B: 0})
	if err := p.SetCandidates(mine); err != nil || p.Candidates() != mine {
		t.Fatalf("SetCandidates over the project's tables: %v, candidates %p, want %p", err, p.Candidates(), mine)
	}
}

func TestProjectEndToEnd(t *testing.T) {
	l, r, truth := richTables(t)
	p, err := NewProject("rich", l, r, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Rules: exact code equality is a sure match; same-prefix-different
	// code is a veto.
	sure, err := rules.NewEqual("code", l, "Code", nil, r, "Code", nil, rules.Match)
	if err != nil {
		t.Fatal(err)
	}
	p.AddSureRule(sure)

	p.AddBlocker(block.Overlap{
		LeftCol: "Title", RightCol: "Title",
		Tokenizer: tokenize.Word{}, Threshold: 2, Normalize: true,
	})
	cand, err := p.Block(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cand.Len() == 0 {
		t.Fatal("no candidates")
	}
	if p.Candidates() != cand {
		t.Fatal("candidates accessor")
	}

	// Debug blocking.
	top, err := p.DebugBlocking(map[string]string{"Title": "Title"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, dp := range top {
		if truth[dp.Pair] {
			t.Fatal("blocking dropped a true match")
		}
	}

	// Label everything (small fixture; oracle labels).
	pairs, err := p.SamplePairs(cand.Len())
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		lab := label.No
		if truth[pr] {
			lab = label.Yes
		}
		if err := p.SetLabel(pr, lab); err != nil {
			t.Fatal(err)
		}
	}
	if p.Labels().Len() != len(pairs) {
		t.Fatal("labels lost")
	}

	// Features: auto plus the case-insensitive extension.
	corr := map[string]string{"Title": "Title"}
	if err := p.GenerateFeatures(corr, []string{"Title"}); err != nil {
		t.Fatal(err)
	}
	if err := feature.AddCaseInsensitive(p.Features(), l, corr, []string{"Title"}); err != nil {
		t.Fatal(err)
	}

	cv, err := p.SelectMatcher(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv) != 6 {
		t.Fatalf("cv results = %d", len(cv))
	}
	if err := p.Train("no_such_matcher"); err == nil {
		t.Fatal("unknown matcher should error")
	}

	// The winner SelectMatcher installed matches (the failed Train must
	// not clobber it).
	res, err := p.Match(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// All true matches found (codes make them sure anyway).
	for pr := range truth {
		if !res.Final.Contains(pr) {
			t.Fatalf("missed true match %v", pr)
		}
	}

	// Estimate accuracy from the (fully labeled) sample.
	est, err := p.EstimateAccuracy(res.Final, p.Labels())
	if err != nil {
		t.Fatal(err)
	}
	if est.Recall.Point < 0.99 {
		t.Fatalf("estimated recall = %v", est.Recall.Point)
	}
}

func TestProjectLabelDebugging(t *testing.T) {
	// With the sure rule, the labelled pairs it decides leave the training
	// set: a flagged row must still map back to its own pair.
	for _, withSure := range []bool{false, true} {
		l, r, truth := richTables(t)
		p, _ := NewProject("dbg", l, r, 5)
		var sure rules.Rule
		if withSure {
			var err error
			if sure, err = rules.NewEqual("code", l, "Code", nil, r, "Code", nil, rules.Match); err != nil {
				t.Fatal(err)
			}
			p.AddSureRule(sure)
		}
		decided := func(pr block.Pair) bool {
			return sure != nil && sure.Apply(l.Row(pr.A), r.Row(pr.B)) == rules.Match
		}
		p.AddBlocker(block.Overlap{
			LeftCol: "Title", RightCol: "Title",
			Tokenizer: tokenize.Word{}, Threshold: 1, Normalize: true,
		})
		if _, err := p.Block(context.Background()); err != nil {
			t.Fatal(err)
		}
		pairs, _ := p.SamplePairs(p.Candidates().Len())
		// Label the sure-decided pairs first, so no kept pair's dataset row
		// is its position in labelling order.
		sort.SliceStable(pairs, func(i, j int) bool { return decided(pairs[i]) && !decided(pairs[j]) })
		var flipped block.Pair
		haveFlip, nDecided := false, 0
		for _, pr := range pairs {
			lab := label.No
			if decided(pr) {
				nDecided++
			}
			if truth[pr] {
				lab = label.Yes
				if !haveFlip && !decided(pr) {
					lab = label.No // corrupt one true match's label
					flipped = pr
					haveFlip = true
				}
			}
			p.SetLabel(pr, lab)
		}
		if !haveFlip {
			t.Skip("no true match sampled")
		}
		if withSure && nDecided == 0 {
			t.Fatal("the sure rule decides no labelled pair")
		}
		if err := p.GenerateFeatures(map[string]string{"Title": "Title"}, []string{"Title"}); err != nil {
			t.Fatal(err)
		}
		if err := feature.AddCaseInsensitive(p.Features(), l, map[string]string{"Title": "Title"}, []string{"Title"}); err != nil {
			t.Fatal(err)
		}
		suspects, err := p.DebugLabels(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, pr := range suspects {
			if pr == flipped {
				found = true
			}
			if decided(pr) {
				t.Fatalf("sure=%v: flagged %v, a pair the sure rule decides", withSure, pr)
			}
		}
		if !found {
			t.Fatalf("sure=%v: label debugging missed the corrupted pair %v (got %v)", withSure, flipped, suspects)
		}
	}
}

func TestProjectDebugViews(t *testing.T) {
	l, r, truth := richTables(t)
	p, _ := NewProject("views", l, r, 13)
	sure, err := rules.NewEqual("code", l, "Code", nil, r, "Code", nil, rules.Match)
	if err != nil {
		t.Fatal(err)
	}
	p.AddSureRule(sure)
	p.AddBlocker(block.Overlap{
		LeftCol: "Title", RightCol: "Title",
		Tokenizer: tokenize.Word{}, Threshold: 2, Normalize: true,
	})
	if _, _, err := p.RuleCoverage(); err == nil {
		t.Fatal("RuleCoverage before Block should error")
	}
	cand, err := p.Block(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sureCov, negCov, err := p.RuleCoverage()
	if err != nil {
		t.Fatal(err)
	}
	if sureCov["code"] == 0 {
		t.Fatalf("sure rule should cover pairs: %v", sureCov)
	}
	if negCov[""] != cand.Len() {
		t.Fatalf("no negative rules: everything should be undecided: %v", negCov)
	}

	// Train, then check importance and PR curve.
	pairs, _ := p.SamplePairs(cand.Len())
	for _, pr := range pairs {
		lab := label.No
		if truth[pr] {
			lab = label.Yes
		}
		p.SetLabel(pr, lab)
	}
	corr := map[string]string{"Title": "Title"}
	if err := p.GenerateFeatures(corr, []string{"Title"}); err != nil {
		t.Fatal(err)
	}
	if err := feature.AddCaseInsensitive(p.Features(), l, corr, []string{"Title"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.FeatureImportance(); err == nil {
		t.Fatal("importance before training should error")
	}
	if err := p.Train("decision_tree"); err != nil {
		t.Fatal(err)
	}
	imp, err := p.FeatureImportance()
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) != p.Features().Len() {
		t.Fatalf("importance entries = %d", len(imp))
	}
	curve, err := p.PRCurve()
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) == 0 {
		t.Fatal("empty PR curve")
	}
	// A non-probabilistic matcher rejects the curve.
	if err := p.Train("svm"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PRCurve(); err == nil {
		t.Fatal("svm has no probabilities; PRCurve should error")
	}
	if _, err := p.FeatureImportance(); err == nil {
		t.Fatal("svm has no importance; should error")
	}
}

func TestProjectCustomFeatureAndMatcher(t *testing.T) {
	l, r, _ := richTables(t)
	p, _ := NewProject("custom", l, r, 9)
	if err := p.AddFeature(feature.Feature{
		Name: "always1", LeftCol: "Title", RightCol: "Title",
		Compute: func(a, b table.Value) float64 { return 1 },
	}); err != nil {
		t.Fatal(err)
	}
	if p.Features().Len() != 1 {
		t.Fatal("custom feature not added")
	}
}

// TestProjectReadOnlyStepsKeepTrainedImputer trains on half the labels,
// labels the rest, and runs every step that fits on the labels without
// installing anything (DebugLabels, PRCurve): Match must still impute
// with the means Train fitted beside its matcher. An unknown matcher name
// fails before anything is vectorized.
func TestProjectReadOnlyStepsKeepTrainedImputer(t *testing.T) {
	l, r, truth := richTables(t)
	p, _ := NewProject("imputer", l, r, 3)
	if err := p.Train("no_such_matcher"); err == nil || !strings.Contains(err.Error(), "unknown matcher") {
		t.Fatalf("unknown matcher without features: %v", err)
	}
	p.AddBlocker(block.Overlap{
		LeftCol: "Title", RightCol: "Title",
		Tokenizer: tokenize.Word{}, Threshold: 1, Normalize: true,
	})
	cand, err := p.Block(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := p.SamplePairs(cand.Len())
	if err != nil {
		t.Fatal(err)
	}
	labelAll := func(pairs []block.Pair) {
		for _, pr := range pairs {
			lab := label.No
			if truth[pr] {
				lab = label.Yes
			}
			if err := p.SetLabel(pr, lab); err != nil {
				t.Fatal(err)
			}
		}
	}
	labelAll(pairs[:len(pairs)/2])
	corr := map[string]string{"Title": "Title", "Code": "Code"}
	if err := p.GenerateFeatures(corr, []string{"Title", "Code"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Train("random_forest"); err != nil {
		t.Fatal(err)
	}
	trained := p.wf.Imputer
	means := trained.Means()

	labelAll(pairs[len(pairs)/2:])
	if _, err := p.DebugLabels(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PRCurve(); err != nil {
		t.Fatal(err)
	}
	if p.wf.Imputer != trained || !reflect.DeepEqual(p.wf.Imputer.Means(), means) {
		t.Fatalf("imputer means moved from %v to %v without a Train", means, p.wf.Imputer.Means())
	}
	if err := p.Train("no_such_matcher"); err == nil {
		t.Fatal("unknown matcher should error")
	}
	if p.wf.Imputer != trained {
		t.Fatal("a failed Train replaced the imputer")
	}
}
