package workflow

import (
	"strings"
	"testing"

	"emgo/internal/block"
	"emgo/internal/feature"
	"emgo/internal/ml"
	"emgo/internal/table"
)

// deployFixture builds tables, a trained tree over registry features, and
// the full spec for a workflow using them.
func deployFixture(t *testing.T) (left, right *table.Table, spec *Spec, transforms Transforms) {
	t.Helper()
	left, right = fixture(t)

	corr := map[string]string{"Title": "Title"}
	fs, err := feature.Generate(left, right, corr, []string{"Title"})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []block.Pair{{A: 0, B: 0}, {A: 1, B: 1}, {A: 0, B: 1}, {A: 1, B: 0}, {A: 2, B: 2}, {A: 2, B: 0}}
	y := []int{1, 1, 0, 0, 1, 0}
	x, err := fs.Vectorize(left, right, pairs)
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
	ds, err := ml.NewDataset(fs.Names(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	tree := &ml.DecisionTree{}
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	matcherSpec, err := ml.ExportMatcher(tree)
	if err != nil {
		t.Fatal(err)
	}
	descs, err := fs.Descriptors()
	if err != nil {
		t.Fatal(err)
	}

	transforms = Transforms{"upper": strings.ToUpper}
	spec = &Spec{
		Name: "deployed",
		Blockers: []BlockerSpec{
			{Type: "overlap", LeftCol: "Title", RightCol: "Title",
				Tokenizer: "word", Threshold: 3, Normalize: true},
			{Type: "attr_equiv", LeftCol: "Num", RightCol: "Num",
				LeftTransform: "upper", RightTransform: "upper"},
		},
		SureRules: []RuleSpec{
			{Type: "equal", Name: "num", LeftCol: "Num", RightCol: "Num",
				LeftTransform: "upper", RightTransform: "upper", Verdict: "match"},
		},
		NegativeRules: []RuleSpec{
			{Type: "comparable_mismatch", Name: "neg", LeftCol: "Num", RightCol: "Num",
				Patterns: []string{"XXX#####", "YYYY-#####-#####"}},
		},
		Features:     descs,
		ImputerMeans: im.Means(),
		Matcher:      matcherSpec,
	}
	return left, right, spec, transforms
}

func TestSpecJSONRoundTrip(t *testing.T) {
	_, _, spec, _ := deployFixture(t)
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != spec.Name || len(back.Blockers) != len(spec.Blockers) ||
		len(back.SureRules) != len(spec.SureRules) || len(back.Features) != len(spec.Features) {
		t.Fatal("spec lost structure in JSON round trip")
	}
	if _, err := ParseSpec([]byte("nope")); err == nil {
		t.Fatal("bad JSON should error")
	}
}

func TestSpecBuildAndRunMatchesOriginal(t *testing.T) {
	left, right, spec, transforms := deployFixture(t)

	// Round trip through JSON, then build and run.
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	w, err := parsed.Build(left, right, transforms)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(left, right)
	if err != nil {
		t.Fatal(err)
	}
	// The sure rule matches (0,0); the learner finds (1,1); the negative
	// rule vetoes (2,2) (comparable WIS numbers that differ).
	if !res.Final.Contains(block.Pair{A: 0, B: 0}) {
		t.Errorf("sure rule missing: %v", res.Final.Pairs())
	}
	if !res.Final.Contains(block.Pair{A: 1, B: 1}) {
		t.Errorf("learned match missing: %v", res.Final.Pairs())
	}
	if res.Final.Contains(block.Pair{A: 2, B: 2}) {
		t.Errorf("vetoed pair present: %v", res.Final.Pairs())
	}

	// Rebuilding twice gives identical results (deployment determinism).
	w2, err := parsed.Build(left, right, transforms)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := w2.Run(left, right)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Final.Len() != res.Final.Len() {
		t.Fatal("rebuilt workflow differs")
	}
}

func TestSpecBuildErrors(t *testing.T) {
	left, right, spec, transforms := deployFixture(t)

	bad := *spec
	bad.Blockers = []BlockerSpec{{Type: "nope"}}
	if _, err := bad.Build(left, right, transforms); err == nil {
		t.Fatal("unknown blocker type should error")
	}

	bad = *spec
	bad.Blockers = []BlockerSpec{{Type: "overlap", LeftCol: "Title", RightCol: "Title", Tokenizer: "nope", Threshold: 1}}
	if _, err := bad.Build(left, right, transforms); err == nil {
		t.Fatal("unknown tokenizer should error")
	}

	bad = *spec
	bad.SureRules = []RuleSpec{{Type: "equal", Name: "x", LeftCol: "Num", RightCol: "Num", Verdict: "maybe"}}
	if _, err := bad.Build(left, right, transforms); err == nil {
		t.Fatal("unknown verdict should error")
	}

	bad = *spec
	bad.SureRules = []RuleSpec{{Type: "mystery", Name: "x"}}
	if _, err := bad.Build(left, right, transforms); err == nil {
		t.Fatal("unknown rule type should error")
	}

	bad = *spec
	bad.SureRules = []RuleSpec{{Type: "equal", Name: "x", LeftCol: "Num", RightCol: "Num",
		LeftTransform: "missing", Verdict: "match"}}
	if _, err := bad.Build(left, right, transforms); err == nil {
		t.Fatal("missing transform should error")
	}

	bad = *spec
	bad.ImputerMeans = bad.ImputerMeans[:1]
	if _, err := bad.Build(left, right, transforms); err == nil {
		t.Fatal("means/features mismatch should error")
	}

	bad = *spec
	bad.Features = nil
	if _, err := bad.Build(left, right, transforms); err == nil {
		t.Fatal("matcher without features should error")
	}

	bad = *spec
	bad.NegativeRules = []RuleSpec{{Type: "comparable_mismatch", Name: "neg", LeftCol: "Num", RightCol: "Num"}}
	if _, err := bad.Build(left, right, transforms); err == nil {
		t.Fatal("comparable rule without patterns should error")
	}
}

// TestBuildUnknownTransformNamesIt: a blocker's transform the registry
// lacks fails the build with an error that names it; the registered name
// builds.
func TestBuildUnknownTransformNamesIt(t *testing.T) {
	l, r := fixture(t)
	spec := &Spec{
		Name:     "t",
		Blockers: []BlockerSpec{{Type: "attr_equiv", LeftCol: "Num", RightCol: "Num", LeftTransform: "upper"}},
	}
	_, err := spec.Build(l, r, Transforms{})
	if err == nil || !strings.Contains(err.Error(), `unknown transform "upper"`) {
		t.Fatalf("err: %v", err)
	}
	w, err := spec.Build(l, r, Transforms{"upper": strings.ToUpper})
	if err != nil || len(w.Blockers) != 1 {
		t.Fatalf("build with the transform registered: %v", err)
	}
}

func TestSpecRulesOnlyBuild(t *testing.T) {
	left, right, _, transforms := deployFixture(t)
	spec := &Spec{
		Name: "rules-only",
		Blockers: []BlockerSpec{
			{Type: "overlap_coeff", LeftCol: "Title", RightCol: "Title",
				Tokenizer: "word", Coefficient: 0.7, Normalize: true},
		},
		SureRules: []RuleSpec{
			{Type: "equal", Name: "num", LeftCol: "Num", RightCol: "Num", Verdict: "match"},
		},
	}
	w, err := spec.Build(left, right, transforms)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(left, right)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Final.Contains(block.Pair{A: 0, B: 0}) {
		t.Fatal("rules-only deployment should still find the sure match")
	}
}
