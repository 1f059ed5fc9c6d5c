package ml

import (
	"encoding/json"
	"testing"
)

func TestTreeExportImportRoundTrip(t *testing.T) {
	ds := synthDataset(200, 21)
	tree := &DecisionTree{}
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	spec, err := tree.Export()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ImportTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.X {
		if tree.Predict(ds.X[i]) != back.Predict(ds.X[i]) {
			t.Fatal("round-tripped tree predicts differently")
		}
		if tree.Proba(ds.X[i]) != back.Proba(ds.X[i]) {
			t.Fatal("round-tripped tree probabilities differ")
		}
	}
}

func TestTreeJSONRoundTrip(t *testing.T) {
	ds := synthDataset(100, 22)
	tree := &DecisionTree{}
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	spec, err := tree.Export()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded TreeSpec
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := ImportTree(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.X {
		if tree.Predict(ds.X[i]) != back.Predict(ds.X[i]) {
			t.Fatal("JSON round trip changed predictions")
		}
	}
}

func TestExportErrors(t *testing.T) {
	if _, err := (&DecisionTree{}).Export(); err == nil {
		t.Fatal("export of unfitted tree should error")
	}
	if _, err := (&RandomForest{}).Export(); err == nil {
		t.Fatal("export of unfitted forest should error")
	}
	if _, err := ImportTree(nil); err == nil {
		t.Fatal("nil spec should error")
	}
	if _, err := ImportTree(&TreeSpec{}); err == nil {
		t.Fatal("empty spec should error")
	}
	if _, err := ImportForest(nil); err == nil {
		t.Fatal("nil forest spec should error")
	}
	// Corrupt specs.
	if _, err := ImportTree(&TreeSpec{Features: []string{"a"}, Root: &NodeSpec{Leaf: true, Label: 7}}); err == nil {
		t.Fatal("non-binary leaf label should error")
	}
	if _, err := ImportTree(&TreeSpec{Features: []string{"a"}, Root: &NodeSpec{Feature: 0}}); err == nil {
		t.Fatal("split without children should error")
	}
	if _, err := ImportTree(&TreeSpec{
		Features: []string{"a"},
		Root: &NodeSpec{Feature: 5,
			Left:  &NodeSpec{Leaf: true},
			Right: &NodeSpec{Leaf: true}},
	}); err == nil {
		t.Fatal("out-of-range feature should error")
	}
}

func TestForestExportImportRoundTrip(t *testing.T) {
	ds := synthDataset(150, 23)
	f := &RandomForest{Trees: 7, Seed: 9}
	if err := f.Fit(ds); err != nil {
		t.Fatal(err)
	}
	spec, err := f.Export()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Trees) != 7 {
		t.Fatalf("spec trees = %d", len(spec.Trees))
	}
	back, err := ImportForest(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.X {
		if f.Predict(ds.X[i]) != back.Predict(ds.X[i]) {
			t.Fatal("round-tripped forest predicts differently")
		}
	}
}

func TestMatcherSpecDispatch(t *testing.T) {
	ds := synthDataset(100, 24)
	tree := &DecisionTree{}
	tree.Fit(ds)
	forest := &RandomForest{Trees: 3, Seed: 1}
	forest.Fit(ds)

	for _, m := range []Matcher{tree, forest} {
		spec, err := ExportMatcher(m)
		if err != nil {
			t.Fatalf("%s export: %v", m.Name(), err)
		}
		back, err := ImportMatcher(spec)
		if err != nil {
			t.Fatalf("%s import: %v", m.Name(), err)
		}
		for i := range ds.X {
			if m.Predict(ds.X[i]) != back.Predict(ds.X[i]) {
				t.Fatalf("%s round trip changed predictions", m.Name())
			}
		}
	}
	lr := &LogisticRegression{}
	lr.Fit(ds)
	if _, err := ExportMatcher(lr); err == nil {
		t.Fatal("non-tree matcher export should error")
	}
	if _, err := ImportMatcher(nil); err == nil {
		t.Fatal("nil matcher spec should error")
	}
	if _, err := ImportMatcher(&MatcherSpec{Kind: "svm"}); err == nil {
		t.Fatal("unknown kind should error")
	}
}

func TestFeatureImportance(t *testing.T) {
	// Label depends only on f0; importance must concentrate there.
	ds := synthDataset(300, 25)
	for i := range ds.X {
		if ds.X[i][0] > 0.5 {
			ds.Y[i] = 1
		} else {
			ds.Y[i] = 0
		}
	}
	tree := &DecisionTree{}
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	imp, err := tree.FeatureImportance()
	if err != nil {
		t.Fatal(err)
	}
	if imp[0].Feature != "f0" || imp[0].Weight < 0.9 {
		t.Fatalf("importance should concentrate on f0: %+v", imp)
	}
	var sum float64
	for _, x := range imp {
		sum += x.Weight
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("importance should sum to 1: %v", sum)
	}

	forest := &RandomForest{Trees: 11, Seed: 2}
	if err := forest.Fit(ds); err != nil {
		t.Fatal(err)
	}
	fimp, err := forest.FeatureImportance()
	if err != nil {
		t.Fatal(err)
	}
	if fimp[0].Feature != "f0" || fimp[0].Weight < 0.6 {
		t.Fatalf("forest importance should favor f0: %+v", fimp)
	}
}

func TestFeatureImportanceErrorsAndDegenerate(t *testing.T) {
	if _, err := (&DecisionTree{}).FeatureImportance(); err == nil {
		t.Fatal("unfitted tree should error")
	}
	if _, err := (&RandomForest{}).FeatureImportance(); err == nil {
		t.Fatal("unfitted forest should error")
	}
	// A pure dataset yields a single leaf: all-zero importance.
	x := [][]float64{{1}, {2}}
	ds, _ := NewDataset([]string{"a"}, x, []int{1, 1})
	tree := &DecisionTree{}
	tree.Fit(ds)
	imp, err := tree.FeatureImportance()
	if err != nil {
		t.Fatal(err)
	}
	if imp[0].Weight != 0 {
		t.Fatalf("single-leaf importance should be zero: %+v", imp)
	}
}
