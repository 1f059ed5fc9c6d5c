package emgo

import (
	"math/rand"
	"testing"

	"emgo/internal/block"
	"emgo/internal/cluster"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// TestE11_DeployAndMonitor exercises the Section 12 "Next Steps": package
// the trained workflow as a JSON spec, rebuild it against a fresh data
// slice, and monitor production accuracy by sampling and labeling
// (footnote 11). A dirty slice must trip the alarm; a clean slice must
// not.
func TestE11_DeployAndMonitor(t *testing.T) {
	w := ablationWorld(t)

	// Train a deployable tree on the ablation world's labels.
	fs, err := feature.Generate(w.proj.UMETRICS, w.proj.USDA, ablCorr, ablOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := feature.AddCaseInsensitive(fs, w.proj.UMETRICS, ablCorr,
		[]string{"AwardTitle", "EmployeeName"}); err != nil {
		t.Fatal(err)
	}
	var pairs []block.Pair
	var y []int
	for i, p := range w.pairs {
		switch w.labels[i] {
		case label.Yes:
			pairs = append(pairs, p)
			y = append(y, 1)
		case label.No:
			pairs = append(pairs, p)
			y = append(y, 0)
		}
	}
	x, err := fs.Vectorize(w.proj.UMETRICS, w.proj.USDA, pairs)
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

	// Package, serialize, parse.
	spec, err := umetrics.FigureSpec(10).Package(fs, im, tree)
	if err != nil {
		t.Fatal(err)
	}
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := workflow.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E11: packaged workflow spec is %d bytes of JSON", len(data))

	// A fresh production slice (different generator seed).
	params := umetrics.TestParams(0.3)
	params.Seed = 77
	newDS, err := umetrics.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	newProj, _, err := umetrics.Preprocess(newDS.AwardAgg, newDS.Employees, newDS.USDA, "u", "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := umetrics.AddProjectNumber(newProj, newDS.USDA); err != nil {
		t.Fatal(err)
	}
	deployed, err := parsed.Build(newProj.UMETRICS, newProj.USDA, umetrics.DeployTransforms())
	if err != nil {
		t.Fatal(err)
	}
	res, err := deployed.Run(newProj.UMETRICS, newProj.USDA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Len() == 0 {
		t.Fatal("deployed workflow found no matches on the new slice")
	}

	oracle, err := umetrics.NewTruthOracle(newDS.Truth, newProj.UMETRICS, newProj.USDA)
	if err != nil {
		t.Fatal(err)
	}
	mon := &workflow.Monitor{SampleSize: 100, MinPrecision: 0.8, Rng: rand.New(rand.NewSource(9))}

	clean, err := mon.Check("clean-slice", res.Final, func(p block.Pair) label.Label {
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
	t.Logf("E11: clean slice precision %s (alarm=%v)", clean.Precision, clean.Alarm)
	if clean.Alarm {
		t.Errorf("clean production slice should not alarm: %+v", clean)
	}

	// A drifted batch (reviewers reject half the matches) must alarm.
	noise := rand.New(rand.NewSource(10))
	dirty, err := mon.Check("dirty-slice", res.Final, func(p block.Pair) label.Label {
		if noise.Float64() < 0.5 {
			return label.No
		}
		return label.Yes
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E11: dirty slice precision %s (alarm=%v)", dirty.Precision, dirty.Alarm)
	if !dirty.Alarm {
		t.Errorf("drifted batch should alarm: %+v", dirty)
	}
	if len(mon.History()) != 2 || len(mon.Alarms()) != 1 {
		t.Error("monitor history bookkeeping wrong")
	}
}

// TestA4_OneToOneAblation quantifies the Section 10 decision: the
// UMETRICS team initially wanted one-to-one matches, but enforcing that
// at the record level destroys the legitimate one-to-many sub-award
// matches — which is why they kept record-level many-to-many matching.
func TestA4_OneToOneAblation(t *testing.T) {
	w := ablationWorld(t)
	// The true match set over the candidate pairs.
	truth := block.NewCandidateSet(w.proj.UMETRICS, w.proj.USDA)
	for _, p := range w.cand.Pairs() {
		if w.oracle.IsMatch(p) {
			truth.Add(p)
		}
	}
	stats := cluster.Degrees(truth)
	t.Logf("A4: true matches are %s", stats)
	if stats.OneToMany == 0 {
		t.Fatal("the generated world should contain one-to-many sub-award matches")
	}

	reduced := cluster.OneToOne(truth, nil)
	lost := truth.Len() - reduced.Len()
	t.Logf("A4: one-to-one enforcement keeps %d of %d true matches (loses %d)",
		reduced.Len(), truth.Len(), lost)
	if lost == 0 {
		t.Error("one-to-one enforcement should lose the one-to-many matches")
	}
	// Everything kept must still be a true match, and the constraint must
	// hold.
	seenL := map[int]bool{}
	seenR := map[int]bool{}
	for _, p := range reduced.Pairs() {
		if !truth.Contains(p) {
			t.Fatal("one-to-one invented a pair")
		}
		if seenL[p.A] || seenR[p.B] {
			t.Fatal("one-to-one constraint violated")
		}
		seenL[p.A] = true
		seenR[p.B] = true
	}
	// Cluster-level matching recovers the grouping the team had in mind.
	clusters := cluster.ConnectedComponents(truth)
	t.Logf("A4: %d true matches form %d entity clusters", truth.Len(), len(clusters))
	if len(clusters) == 0 || len(clusters) >= truth.Len() {
		t.Errorf("cluster count %d out of range", len(clusters))
	}
}
