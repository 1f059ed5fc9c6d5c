package umetrics

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"emgo/internal/drift"

	"emgo/internal/block"
	"emgo/internal/core"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/tokenize"
	"emgo/internal/workflow"
)

// trainForDeploy builds projected tables, labels every title-overlap
// candidate with the truth oracle, trains a decision tree through
// core.Project and packages it onto Figure 10 — the development half of
// the deployment story, as examples/production runs it.
func trainForDeploy(t *testing.T) (*Projected, *workflow.Spec) {
	t.Helper()
	ds, err := Generate(TestParams(0.25))
	if err != nil {
		t.Fatal(err)
	}
	proj, _, err := Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := AddProjectNumber(proj, ds.USDA); err != nil {
		t.Fatal(err)
	}
	oracle, err := NewTruthOracle(ds.Truth, proj.UMETRICS, proj.USDA)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProject("deploy", proj.UMETRICS, proj.USDA, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.AddBlocker(block.Overlap{LeftCol: "AwardTitle", RightCol: "AwardTitle",
		Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true})
	cand, err := p.Block()
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range cand.Pairs() {
		l := label.No
		switch {
		case oracle.IsHard(pair):
			l = label.Unsure
		case oracle.IsMatch(pair):
			l = label.Yes
		}
		if err := p.SetLabel(pair, l); err != nil {
			t.Fatal(err)
		}
	}
	corr := map[string]string{"AwardNumber": "AwardNumber", "AwardTitle": "AwardTitle", "EmployeeName": "EmployeeName"}
	if err := p.GenerateFeatures(corr, []string{"AwardNumber", "AwardTitle", "EmployeeName"}); err != nil {
		t.Fatal(err)
	}
	if err := feature.AddCaseInsensitive(p.Features(), proj.UMETRICS, corr, []string{"AwardTitle", "EmployeeName"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Train("decision_tree"); err != nil {
		t.Fatal(err)
	}
	spec, err := p.Spec(FigureSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	return proj, spec
}

// TestBuildDeploymentSpecValidation: packaging the study's Section 10
// spec refuses a missing part and a matcher that does not serialize.
func TestBuildDeploymentSpecValidation(t *testing.T) {
	base := FigureSpec(10)
	if _, err := base.Package(nil, nil, nil); err == nil {
		t.Fatal("nil inputs should error")
	}
	// An unserializable matcher kind is rejected.
	_, spec := trainForDeploy(t)
	fs, err := feature.FromDescriptors(spec.Features)
	if err != nil {
		t.Fatal(err)
	}
	im := feature.ImputerFromMeans(spec.ImputerMeans)
	if _, err := base.Package(fs, im, &ml.LogisticRegression{}); err == nil {
		t.Fatal("unserializable matcher should error")
	}
}

// TestDeploymentSpecRoundTrip: the spec the study ships, serialized,
// parsed and rebuilt over the study's own two slices, reproduces the
// study's matches exactly. Both configurations have a Section 10 winner
// that serializes — a tree, then a forest — so the shipped matcher is the
// one the study evaluated (EXPERIMENTS.md Known divergence 5 is what
// happens otherwise).
func TestDeploymentSpecRoundTrip(t *testing.T) {
	for _, c := range []struct {
		scale float64
		seed  int64
		kind  string
	}{
		{0.15, 7, "decision_tree"},
		{0.6, 8, "random_forest"},
	} {
		cfg := TestConfig(c.scale)
		cfg.Seed = c.seed
		rep, shipped := shippedMatches(t, cfg)
		if got := rep.Deployment.Matcher.Kind; got != c.kind {
			t.Fatalf("scale %g seed %d: shipped a %s, want the %s the study selected", c.scale, c.seed, got, c.kind)
		}
		if !reflect.DeepEqual(shipped, rep.Matches) {
			t.Errorf("scale %g seed %d: the shipped spec matches %d pairs, the study %d",
				c.scale, c.seed, len(shipped), len(rep.Matches))
		}
	}
}

// shippedMatches runs the study at cfg, then rebuilds the spec it ships
// from its JSON over the study's own two slices — the original and the
// extra slice sharing its USDA table — and returns the report and the
// rebuilt workflow's matches, merged as the study merges its own.
func shippedMatches(t *testing.T, cfg Config) (*Report, []workflow.IDPair) {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Deployment.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workflow.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Generate(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	proj, extra, _, err := slices(ds)
	if err != nil {
		t.Fatal(err)
	}
	var lists [][]workflow.IDPair
	for _, um := range []*Projected{proj, extra} {
		res, err := RunDeployed(context.Background(), spec, um.UMETRICS, um.USDA, workflow.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids, err := res.MatchIDs("AwardNumber", "AccessionNumber")
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, ids)
	}
	return rep, workflow.MergeIDs(lists...)
}

func TestDeploymentOnNewSlice(t *testing.T) {
	// Train on one world, deploy on a fresh slice (different seed) — the
	// "matching for other data slices" scenario, with monitoring.
	_, spec := trainForDeploy(t)

	params := TestParams(0.25)
	params.Seed = 99
	newDS, err := Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	newProj, _, err := Preprocess(newDS.AwardAgg, newDS.Employees, newDS.USDA, "u", "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := AddProjectNumber(newProj, newDS.USDA); err != nil {
		t.Fatal(err)
	}
	deployed, err := spec.Build(newProj.UMETRICS, newProj.USDA, DeployTransforms())
	if err != nil {
		t.Fatal(err)
	}
	res, err := deployed.Run(newProj.UMETRICS, newProj.USDA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Len() == 0 {
		t.Fatal("deployed workflow found nothing on the new slice")
	}

	// Footnote 11: monitor the production batch's precision by sampling
	// and labeling.
	oracle, err := NewTruthOracle(newDS.Truth, newProj.UMETRICS, newProj.USDA)
	if err != nil {
		t.Fatal(err)
	}
	mon := &workflow.Monitor{SampleSize: 100, MinPrecision: 0.8, Rng: rand.New(rand.NewSource(1))}
	check, err := mon.Check("new-slice", res.Final, func(p block.Pair) label.Label {
		switch {
		case oracle.IsHard(p):
			return label.Unsure
		case oracle.IsMatch(p):
			return label.Yes
		default:
			return label.No
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if check.Alarm {
		t.Fatalf("deployed workflow precision collapsed on the new slice: %+v", check)
	}
	if check.Precision.Point < 0.8 {
		t.Fatalf("production precision %v too low", check.Precision.Point)
	}
}

func TestCaptureDeployBaselineAndMonitoredSlice(t *testing.T) {
	// Train, capture the baseline over the training slice, then check a
	// fresh slice from the same generator against it — the quality-
	// monitoring half of the "matching for other data slices" story.
	proj, spec := trainForDeploy(t)

	path := filepath.Join(t.TempDir(), "baseline.json")
	capRes, err := RunDeployed(context.Background(), spec, proj.UMETRICS, proj.USDA,
		workflow.RunOptions{Drift: &workflow.DriftStage{BaselinePath: path}})
	if err != nil {
		t.Fatal(err)
	}
	if base := capRes.DriftProfile; base == nil || len(base.Features) == 0 {
		t.Fatalf("baseline missing feature distributions: %+v", base)
	}
	loaded, err := drift.LoadProfile(path)
	if err != nil {
		t.Fatalf("baseline not persisted: %v", err)
	}

	// A new slice from the same world distribution should not breach.
	params := TestParams(0.25)
	params.Seed = 99
	newDS, err := Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	newProj, _, err := Preprocess(newDS.AwardAgg, newDS.Employees, newDS.USDA, "u", "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := AddProjectNumber(newProj, newDS.USDA); err != nil {
		t.Fatal(err)
	}
	res, err := RunDeployed(context.Background(), spec, newProj.UMETRICS, newProj.USDA,
		workflow.RunOptions{Drift: &workflow.DriftStage{Baseline: loaded}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality == nil {
		t.Fatal("monitored deployed run produced no assessment")
	}
	if res.Quality.Breached() {
		t.Fatalf("same-distribution slice breached: %+v", res.Quality.Signals)
	}
	if res.Report == nil || res.Report.Quality == nil {
		t.Fatal("monitored run report missing the quality section")
	}
}

// TestMonitoredDeployedRunProfilesEveryFeature: a deployed workflow
// computes only what its tree reads, but a run with a drift stage profiles
// every feature — the distribution of AwardNumber_jaccard_qgram3 over the
// candidates is how a vanished award number shows, whether or not a node
// tests it — and matches exactly as the unmonitored run does.
func TestMonitoredDeployedRunProfilesEveryFeature(t *testing.T) {
	proj, spec := trainForDeploy(t)
	matcher, err := ml.ImportMatcher(spec.Matcher)
	if err != nil {
		t.Fatal(err)
	}
	features := spec.Features
	read := 0
	for _, r := range ml.ReadSet(matcher, len(features)) {
		if r {
			read++
		}
	}
	if read == 0 || read >= len(features) {
		t.Fatalf("fixture: the tree reads %d of %d features; the test needs a proper subset", read, len(features))
	}
	plain, err := RunDeployed(context.Background(), spec, proj.UMETRICS, proj.USDA, workflow.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	monitored, err := RunDeployed(context.Background(), spec, proj.UMETRICS, proj.USDA,
		workflow.RunOptions{Drift: &workflow.DriftStage{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(monitored.DriftProfile.Features); got != len(features) {
		t.Fatalf("the monitored run profiled %d features, want all %d", got, len(features))
	}
	for k, f := range monitored.DriftProfile.Features {
		if f.Name != features[k].Name {
			t.Fatalf("profile feature %d is %q, want %q", k, f.Name, features[k].Name)
		}
	}
	if !reflect.DeepEqual(monitored.Final.Sorted(), plain.Final.Sorted()) {
		t.Fatal("the monitored run's matches differ from the unmonitored run's")
	}
}
