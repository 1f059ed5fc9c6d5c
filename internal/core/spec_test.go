package core_test

import (
	"reflect"
	"testing"

	"emgo/internal/block"
	"emgo/internal/core"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// TestProjectFromSpecEqualsSpecWorkflow starts a Project from Figure 10's
// spec: it blocks like the workflow the spec builds, with one trained
// matcher it matches like that workflow carrying the same matcher, and the
// spec it packages (Project.Spec) round-trips through JSON to the same
// matches.
func TestProjectFromSpecEqualsSpecWorkflow(t *testing.T) {
	gen, err := umetrics.Generate(umetrics.TestParams(0.15))
	if err != nil {
		t.Fatal(err)
	}
	proj, _, err := umetrics.Preprocess(gen.AwardAgg, gen.Employees, gen.USDA, "u", "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := umetrics.AddProjectNumber(proj, gen.USDA); err != nil {
		t.Fatal(err)
	}
	um, us := proj.UMETRICS, proj.USDA
	spec := umetrics.FigureSpec(10)
	w, err := spec.Build(um, us, umetrics.DeployTransforms())
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProject("fig10", um, us, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddSpec(spec, umetrics.DeployTransforms()); err != nil {
		t.Fatal(err)
	}

	cand, err := p.Block()
	if err != nil {
		t.Fatal(err)
	}
	want, err := block.UnionBlock(um, us, w.Blockers...)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Len() == 0 || !reflect.DeepEqual(cand.Sorted(), want.Sorted()) {
		t.Fatalf("project blocked %d pairs, the spec's blockers %d", cand.Len(), want.Len())
	}

	oracle, err := umetrics.NewTruthOracle(gen.Truth, um, us)
	if err != nil {
		t.Fatal(err)
	}
	sample, err := p.SamplePairs(150)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range sample {
		l := label.No
		if oracle.IsMatch(pr) {
			l = label.Yes
		}
		if err := p.SetLabel(pr, l); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.GenerateFeatures(umetrics.FeatureColumns()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Spec(umetrics.FigureSpec(10)); err == nil {
		t.Fatal("packaging an untrained project should error")
	}
	if err := p.Train("decision_tree"); err != nil {
		t.Fatal(err)
	}
	got, err := p.Match()
	if err != nil {
		t.Fatal(err)
	}

	// The packaged project, shipped as JSON and rebuilt, matches as the
	// project does.
	packaged, err := p.Spec(umetrics.FigureSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	data, err := packaged.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := workflow.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := parsed.Build(um, us, umetrics.DeployTransforms())
	if err != nil {
		t.Fatal(err)
	}
	shippedRes, err := shipped.Run(um, us)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shippedRes.Final.Sorted(), got.Final.Sorted()) {
		t.Fatalf("the shipped spec matched %d pairs, the project %d", shippedRes.Final.Len(), got.Final.Len())
	}

	ds, _, im, err := core.TrainingData(um, us, p.Labels(), w.SureRules, p.Features())
	if err != nil {
		t.Fatal(err)
	}
	f, err := ml.FactoryByName("decision_tree", 7)
	if err != nil {
		t.Fatal(err)
	}
	m := f.New()
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	w.Features, w.Imputer, w.Matcher = p.Features(), im, m
	res, err := w.Run(um, us)
	if err != nil {
		t.Fatal(err)
	}
	if res.Learned.Len() == 0 || res.Vetoed == 0 {
		t.Fatalf("learned %d, vetoed %d: the matcher and negative rules should both act", res.Learned.Len(), res.Vetoed)
	}
	if !reflect.DeepEqual(got.Final.Sorted(), res.Final.Sorted()) {
		t.Fatalf("project matched %d pairs, the spec's workflow %d", got.Final.Len(), res.Final.Len())
	}

	// Packaging refuses a missing part and a matcher that does not
	// serialize.
	if _, err := spec.Package(nil, nil, nil); err == nil {
		t.Fatal("packaging without features, imputer and matcher should error")
	}
	if _, err := spec.Package(p.Features(), im, &ml.LogisticRegression{}); err == nil {
		t.Fatal("packaging an unserializable matcher should error")
	}

	// A spec that carries a matcher is refused: a project trains its own.
	if spec.Matcher, err = ml.ExportMatcher(m); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSpec(spec, umetrics.DeployTransforms()); err == nil {
		t.Fatal("a spec carrying a matcher should be refused")
	}
}
