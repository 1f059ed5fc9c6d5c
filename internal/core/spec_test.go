package core_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"emgo/internal/block"
	"emgo/internal/core"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// figure10Project starts a Project from Figure 10's spec over a small
// UMETRICS original slice, blocks, labels 150 sampled candidates by the
// generator's truth and generates Section 9's features: a project ready
// to select or train a matcher.
func figure10Project(t *testing.T, seed int64) *core.Project {
	t.Helper()
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
	p, err := core.NewProject("fig10", um, us, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddSpec(umetrics.FigureSpec(10), umetrics.DeployTransforms()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Block(context.Background()); err != nil {
		t.Fatal(err)
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
	return p
}

// TestProjectFromSpecEqualsSpecWorkflow starts a Project from Figure 10's
// spec: it blocks like the workflow the spec builds, with one trained
// matcher it matches like that workflow carrying the same matcher, and the
// spec it packages (Project.Spec) round-trips through JSON to the same
// matches.
func TestProjectFromSpecEqualsSpecWorkflow(t *testing.T) {
	p := figure10Project(t, 7)
	um, us := p.Left(), p.Right()
	spec := umetrics.FigureSpec(10)
	w, err := spec.Build(um, us, umetrics.DeployTransforms())
	if err != nil {
		t.Fatal(err)
	}
	cand := p.Candidates()
	want, err := block.UnionBlockCtx(context.Background(), um, us, w.Blockers...)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Len() == 0 || !reflect.DeepEqual(cand.Sorted(), want.Sorted()) {
		t.Fatalf("project blocked %d pairs, the spec's blockers %d", cand.Len(), want.Len())
	}

	if _, err := p.Spec(umetrics.FigureSpec(10)); err == nil {
		t.Fatal("packaging an untrained project should error")
	}
	if err := p.Train("decision_tree"); err != nil {
		t.Fatal(err)
	}
	got, err := p.Match(context.Background())
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

	ds, _, im, err := core.TrainingData(context.Background(), um, us, p.Labels(), w.SureRules, p.Features())
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
	if _, err := spec.Package(p.Features(), im, &ml.LogisticRegression{}); !errors.Is(err, ml.ErrNotSerializable) {
		t.Fatalf("packaging an unserializable matcher: err = %v, want ml.ErrNotSerializable", err)
	}

	// A spec that carries a matcher is refused: a project trains its own.
	if spec.Matcher, err = ml.ExportMatcher(m); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSpec(spec, umetrics.DeployTransforms()); err == nil {
		t.Fatal("a spec carrying a matcher should be refused")
	}
}

// TestSelectMatcherInstallsItsWinner: selection alone leaves the project
// matching, and packaging, exactly as an explicit Train of the winner
// does. Project seed 2 selects a random forest, which packages; seed 7 a
// linear regression, which does not.
func TestSelectMatcherInstallsItsWinner(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{2, 7} {
		p := figure10Project(t, seed)
		cv, err := p.SelectMatcher(ctx, 5)
		if err != nil {
			t.Fatal(err)
		}
		selected, err := p.Match(ctx)
		if err != nil {
			t.Fatal(err)
		}
		selectedSpec, selectedErr := p.Spec(umetrics.FigureSpec(10))
		if err := p.Train(cv[0].Name); err != nil {
			t.Fatal(err)
		}
		trained, err := p.Match(ctx)
		if err != nil {
			t.Fatal(err)
		}
		trainedSpec, trainedErr := p.Spec(umetrics.FigureSpec(10))

		if trained.Learned.Len() == 0 {
			t.Fatalf("seed %d: %s learned no match: the comparison shows nothing", seed, cv[0].Name)
		}
		if !reflect.DeepEqual(selected.Learned.Sorted(), trained.Learned.Sorted()) ||
			!reflect.DeepEqual(selected.Final.Sorted(), trained.Final.Sorted()) {
			t.Fatalf("seed %d: after selection %d learned / %d final, after Train(%q) %d / %d", seed,
				selected.Learned.Len(), selected.Final.Len(), cv[0].Name, trained.Learned.Len(), trained.Final.Len())
		}
		if selectedErr != nil || trainedErr != nil {
			if !errors.Is(selectedErr, ml.ErrNotSerializable) || !errors.Is(trainedErr, ml.ErrNotSerializable) {
				t.Fatalf("seed %d: packaging after selection: %v; after Train(%q): %v", seed, selectedErr, cv[0].Name, trainedErr)
			}
			continue
		}
		a, err := selectedSpec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b, err := trainedSpec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: the spec packaged after selection differs from the one after Train(%q)", seed, cv[0].Name)
		}
	}
}
