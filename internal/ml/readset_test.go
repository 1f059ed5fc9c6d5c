package ml

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// throughJSON sends a fitted matcher the way a deployment does: Export,
// JSON, Import.
func throughJSON(t *testing.T, m Matcher) Matcher {
	t.Helper()
	spec, err := ExportMatcher(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded MatcherSpec
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := ImportMatcher(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestImportedMatcherImportanceRefuses: a tree or forest that went through
// Export → JSON → Import has no samples or gain on its nodes, and says so
// instead of reporting every feature at zero; what it points at instead,
// ReadSet, reads the same off the imported model as off the fitted one,
// and covers every feature the fitted model gave weight to.
func TestImportedMatcherImportanceRefuses(t *testing.T) {
	ds := synthDataset(300, 31)
	for _, m := range []interface {
		Matcher
		FeatureImportance() ([]Importance, error)
	}{&DecisionTree{}, &RandomForest{Trees: 7, Seed: 3}} {
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		fitted, err := m.FeatureImportance()
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		back := throughJSON(t, m).(interface {
			Matcher
			FeatureImportance() ([]Importance, error)
		})
		imp, err := back.FeatureImportance()
		if err == nil {
			t.Fatalf("%s: imported importance = %+v, want a refusal", m.Name(), imp)
		}
		for _, want := range []string{"imported matcher carries no training statistics; read the split features instead", "ReadSet"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not say %q", m.Name(), err, want)
			}
		}
		read := ReadSet(back, ds.NumFeatures())
		if got := ReadSet(m, ds.NumFeatures()); !reflect.DeepEqual(got, read) {
			t.Fatalf("%s: read set %v fitted, %v imported", m.Name(), got, read)
		}
		reads := map[string]bool{}
		for k, r := range read {
			reads[ds.Features[k]] = r
		}
		for _, f := range fitted {
			if f.Weight > 0 && !reads[f.Feature] {
				t.Fatalf("%s: %s has importance %v but is not in the read set %v", m.Name(), f.Feature, f.Weight, read)
			}
		}
	}
}

// opaque hides a matcher's kind: by ReadSet's rule it reads everything.
type opaque struct{ Matcher }

func TestReadSetOfOtherKindsIsAll(t *testing.T) {
	tree := &DecisionTree{}
	if err := tree.Fit(synthDataset(100, 32)); err != nil {
		t.Fatal(err)
	}
	for _, m := range []Matcher{opaque{tree}, &NaiveBayes{}, &LogisticRegression{}} {
		if got := ReadSet(m, 4); !reflect.DeepEqual(got, []bool{true, true, true, true}) {
			t.Fatalf("%s: read set %v, want all four", m.Name(), got)
		}
	}
	if got := ReadSet(tree, 3); len(got) != 3 || !slices.Contains(got, true) {
		t.Fatalf("fitted tree reads %v", got)
	}
}

// randomTree draws a tree spec over width features in which every split
// can be reached (a path tests a feature once) and matters (the leaves
// under a split differ in label and in probability).
func randomTree(rng *rand.Rand, width, depth int) *TreeSpec {
	names := make([]string, width)
	for k := range names {
		names[k] = fmt.Sprintf("f%d", k)
	}
	var grow func(d int, free []int, label int) *NodeSpec
	grow = func(d int, free []int, label int) *NodeSpec {
		if d == 0 || len(free) == 0 || rng.Intn(4) == 0 {
			return &NodeSpec{Leaf: true, Label: label, Proba: rng.Float64()}
		}
		i := rng.Intn(len(free))
		rest := append(append([]int(nil), free[:i]...), free[i+1:]...)
		return &NodeSpec{
			Feature: free[i], Threshold: 0.2 + 0.6*rng.Float64(),
			Left: grow(d-1, rest, 0), Right: grow(d-1, rest, 1),
		}
	}
	free := rng.Perm(width)
	return &TreeSpec{Features: names, Root: grow(depth, free, rng.Intn(2))}
}

// TestReadSetIsWhatCanMoveAnOutput is the invariant deployment narrowing
// rests on, over random trees and forests and random vectors with random
// missing values: a vector whose unread slots hold the imputer's mean
// scores exactly as the fully computed, imputed vector does, and so do
// its read columns alone under the narrowed matcher (Narrow); no
// perturbation of an unread slot moves Predict or Proba; and every read
// slot has a perturbation that does.
func TestReadSetIsWhatCanMoveAnOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 60; trial++ {
		width := 4 + rng.Intn(9)
		var m ProbabilisticMatcher
		if trial%2 == 0 {
			tree, err := ImportTree(randomTree(rng, width, 1+rng.Intn(4)))
			if err != nil {
				t.Fatal(err)
			}
			m = tree
		} else {
			spec := &ForestSpec{}
			for n := 1 + rng.Intn(5); n > 0; n-- {
				spec.Trees = append(spec.Trees, randomTree(rng, width, 1+rng.Intn(3)))
			}
			forest, err := ImportForest(spec)
			if err != nil {
				t.Fatal(err)
			}
			m = forest
		}
		reads := ReadSet(m, width)
		nm, narrowReads := Narrow(m, width)
		if !reflect.DeepEqual(narrowReads, reads) {
			t.Fatalf("trial %d: Narrow reads %v, ReadSet %v", trial, narrowReads, reads)
		}
		narrow := nm.(ProbabilisticMatcher)
		means := make([]float64, width)
		for k := range means {
			means[k] = rng.Float64()
		}
		moved := make([]bool, width)
		for v := 0; v < 400; v++ {
			full, pruned := make([]float64, width), make([]float64, width)
			for k := range full {
				raw := rng.Float64()
				if rng.Intn(5) == 0 {
					raw = math.NaN()
				}
				if full[k] = raw; math.IsNaN(raw) {
					full[k] = means[k]
				}
				if pruned[k] = full[k]; !reads[k] {
					pruned[k] = means[k]
				}
			}
			label, score := m.Predict(full), m.Proba(full)
			if l, s := m.Predict(pruned), m.Proba(pruned); l != label || s != score {
				t.Fatalf("trial %d (%s, reads %v): pruned vector scores %d/%v, full %d/%v", trial, m.Name(), reads, l, s, label, score)
			}
			var cols []float64
			for k, read := range reads {
				if read {
					cols = append(cols, full[k])
				}
			}
			if l, s := narrow.Predict(cols), narrow.Proba(cols); l != label || s != score {
				t.Fatalf("trial %d (%s, reads %v): the narrowed matcher scores the read columns %d/%v, m the full vector %d/%v", trial, m.Name(), reads, l, s, label, score)
			}
			for k := range full {
				was := full[k]
				full[k] = rng.Float64()
				if m.Predict(full) != label || m.Proba(full) != score {
					if !reads[k] {
						t.Fatalf("trial %d (%s): feature %d is outside the read set %v and moved the output", trial, m.Name(), k, reads)
					}
					moved[k] = true
				}
				full[k] = was
			}
		}
		for k, read := range reads {
			if read && !moved[k] {
				t.Fatalf("trial %d (%s): feature %d is in the read set %v and no perturbation moved an output", trial, m.Name(), k, reads)
			}
		}
	}
}
