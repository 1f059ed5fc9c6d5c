package core_test

import (
	"reflect"
	"testing"

	"emgo/internal/block"
	"emgo/internal/core"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/umetrics"
)

// TestProjectFromSpecEqualsSpecWorkflow starts a Project from Figure 10's
// spec: it blocks like the workflow the spec builds, and with one trained
// matcher it matches like that workflow carrying the same matcher.
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
	cols := []string{"AwardNumber", "AwardTitle", "FirstTransDate", "LastTransDate", "EmployeeName"}
	corr := make(map[string]string, len(cols))
	for _, c := range cols {
		corr[c] = c
	}
	if err := p.GenerateFeatures(corr, cols); err != nil {
		t.Fatal(err)
	}
	if err := p.Train("decision_tree"); err != nil {
		t.Fatal(err)
	}
	got, err := p.Match()
	if err != nil {
		t.Fatal(err)
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

	// A spec that carries a matcher is refused: a project trains its own.
	if spec.Matcher, err = ml.ExportMatcher(m); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSpec(spec, umetrics.DeployTransforms()); err == nil {
		t.Fatal("a spec carrying a matcher should be refused")
	}
}
