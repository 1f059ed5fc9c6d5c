package ml

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// synthDataset builds a linearly separable-ish dataset: label 1 when
// x0 + x1 > 1, with n points on a seeded grid plus mild jitter.
func synthDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a := rng.Float64()
		b := rng.Float64()
		noise := rng.NormFloat64() * 0.02
		x[i] = []float64{a, b, rng.Float64()} // third feature is noise
		if a+b+noise > 1 {
			y[i] = 1
		}
	}
	ds, err := NewDataset([]string{"f0", "f1", "noise"}, x, y)
	if err != nil {
		panic(err)
	}
	return ds
}

// xorDataset is not linearly separable; trees must handle it, linear
// models cannot.
func xorDataset() *Dataset {
	var x [][]float64
	var y []int
	for i := 0; i < 40; i++ {
		a := float64(i % 2)
		b := float64((i / 2) % 2)
		x = append(x, []float64{a, b})
		if (a == 1) != (b == 1) {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	ds, _ := NewDataset([]string{"a", "b"}, x, y)
	return ds
}

func evalOnTrain(t *testing.T, m Matcher, ds *Dataset) Confusion {
	t.Helper()
	if err := m.Fit(ds); err != nil {
		t.Fatalf("%s fit: %v", m.Name(), err)
	}
	c, err := Confuse(ds.Y, PredictAll(m, ds.X))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset([]string{"a"}, [][]float64{{1}}, []int{0, 1}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := NewDataset([]string{"a"}, [][]float64{{1, 2}}, []int{0}); err == nil {
		t.Fatal("width mismatch should error")
	}
	if _, err := NewDataset([]string{"a"}, [][]float64{{math.NaN()}}, []int{0}); err == nil {
		t.Fatal("NaN should error")
	}
	if _, err := NewDataset([]string{"a"}, [][]float64{{1}}, []int{2}); err == nil {
		t.Fatal("non-binary label should error")
	}
}

func TestDatasetHelpers(t *testing.T) {
	ds := synthDataset(50, 1)
	if ds.Len() != 50 || ds.NumFeatures() != 3 {
		t.Fatal("dims")
	}
	pos := ds.Positives()
	if pos <= 0 || pos >= 50 {
		t.Fatalf("positives = %d, dataset degenerate", pos)
	}
	sub := ds.Subset([]int{0, 1, 2})
	if sub.Len() != 3 {
		t.Fatal("subset")
	}
	a, b, err := ds.Split(0.5, rand.New(rand.NewSource(1)))
	if err != nil || a.Len()+b.Len() != 50 {
		t.Fatalf("split: %v", err)
	}
	if _, _, err := ds.Split(0, nil); err == nil {
		t.Fatal("bad fraction should error")
	}
}

func TestDecisionTreeLearnsSeparableData(t *testing.T) {
	ds := synthDataset(300, 2)
	c := evalOnTrain(t, &DecisionTree{}, ds)
	if c.F1() < 0.99 {
		t.Fatalf("tree train F1 = %v", c.F1())
	}
}

func TestDecisionTreeLearnsXOR(t *testing.T) {
	ds := xorDataset()
	c := evalOnTrain(t, &DecisionTree{}, ds)
	if c.Accuracy() != 1 {
		t.Fatalf("tree should fit XOR exactly, acc = %v", c.Accuracy())
	}
}

func TestDecisionTreeMaxDepth(t *testing.T) {
	ds := synthDataset(300, 3)
	shallow := &DecisionTree{MaxDepth: 1}
	if err := shallow.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if d := shallow.Depth(); d > 1 {
		t.Fatalf("depth %d exceeds max 1", d)
	}
	deep := &DecisionTree{}
	if err := deep.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if deep.Depth() <= shallow.Depth() {
		t.Fatal("unbounded tree should be deeper")
	}
}

func TestDecisionTreePureLeafShortCircuit(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	ds, _ := NewDataset([]string{"a"}, x, y)
	tree := &DecisionTree{}
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 0 {
		t.Fatal("pure dataset should produce a single leaf")
	}
	if tree.Predict([]float64{99}) != 1 {
		t.Fatal("pure-positive tree should predict 1")
	}
	if tree.Proba([]float64{99}) != 1 {
		t.Fatal("pure-positive proba should be 1")
	}
}

func TestDecisionTreeRules(t *testing.T) {
	ds := xorDataset()
	tree := &DecisionTree{}
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	r := tree.Rules()
	if !strings.Contains(r, "if a <=") && !strings.Contains(r, "if b <=") {
		t.Fatalf("rules rendering: %s", r)
	}
}

func TestDecisionTreeEmptyFit(t *testing.T) {
	ds, _ := NewDataset([]string{"a"}, nil, nil)
	if err := (&DecisionTree{}).Fit(ds); err == nil {
		t.Fatal("empty dataset should error")
	}
}

func TestRandomForest(t *testing.T) {
	ds := synthDataset(300, 4)
	f := &RandomForest{Trees: 15, Seed: 7}
	c := evalOnTrain(t, f, ds)
	if c.F1() < 0.97 {
		t.Fatalf("forest train F1 = %v", c.F1())
	}
	p := f.Proba(ds.X[0])
	if p < 0 || p > 1 {
		t.Fatalf("proba out of range: %v", p)
	}
}

func TestRandomForestDeterminism(t *testing.T) {
	ds := synthDataset(200, 5)
	f1 := &RandomForest{Trees: 5, Seed: 42}
	f2 := &RandomForest{Trees: 5, Seed: 42}
	if err := f1.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := f2.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for i := range ds.X {
		if f1.Predict(ds.X[i]) != f2.Predict(ds.X[i]) {
			t.Fatal("same seed must give identical forests")
		}
	}
}

func TestLogisticRegression(t *testing.T) {
	ds := synthDataset(300, 6)
	m := &LogisticRegression{}
	c := evalOnTrain(t, m, ds)
	if c.F1() < 0.95 {
		t.Fatalf("logreg train F1 = %v", c.F1())
	}
	p := m.Proba(ds.X[0])
	if p < 0 || p > 1 {
		t.Fatalf("proba out of range: %v", p)
	}
}

func TestLinearRegressionMatcher(t *testing.T) {
	ds := synthDataset(300, 7)
	c := evalOnTrain(t, &LinearRegression{}, ds)
	if c.F1() < 0.9 {
		t.Fatalf("linreg train F1 = %v", c.F1())
	}
}

// rowDescentLinear is LinearRegression's descent as it ran before the Gram
// form: every epoch walks all n standardized rows. It is the reference
// the Gram descent is held to.
func rowDescentLinear(ds *Dataset, epochs int, lr float64) (w []float64, bias float64) {
	x, nf := fitStandardizer(ds).matrix(ds)
	w = make([]float64, nf)
	n := float64(ds.Len())
	gw := make([]float64, nf)
	for e := 0; e < epochs; e++ {
		for j := range gw {
			gw[j] = 0
		}
		gb := 0.0
		for i := 0; i < ds.Len(); i++ {
			xi := x[i*nf : (i+1)*nf]
			err := dot(w, xi) + bias - float64(ds.label(i))
			for j := range gw {
				gw[j] += err * xi[j]
			}
			gb += err
		}
		for j := range w {
			w[j] -= lr * gw[j] / n
		}
		bias -= lr * gb / n
	}
	return w, bias
}

// TestLinearRegressionGramMatchesRowDescent holds the Gram descent to the
// per-row one it replaced: the same 200 steps, equal up to rounding, and
// the same prediction on every row — on the study's shape (two constant
// columns, heavy ties) and on a continuous set.
func TestLinearRegressionGramMatchesRowDescent(t *testing.T) {
	for name, ds := range map[string]*Dataset{"study": studyData(), "synth": synthDataset(300, 7)} {
		m := &LinearRegression{}
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		w, bias := rowDescentLinear(ds, 200, 0.1)
		got, want := append(slices.Clone(m.w), m.bias), append(slices.Clone(w), bias)
		// Relative to the largest coefficient: a weight near 0 is a
		// difference of large sums, and its own digits carry their rounding.
		scale := 0.0
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-12*scale {
				t.Errorf("%s: coefficient %d (the last is the bias) = %v, row descent %v", name, j, got[j], want[j])
			}
		}
		ref := &LinearRegression{w: w, bias: bias, scale: m.scale}
		for i, x := range ds.X {
			if got, want := m.Predict(x), ref.Predict(x); got != want {
				t.Errorf("%s: row %d predicts %d, row descent %d (scores %v, %v)", name, i, got, want, m.Score(x), ref.Score(x))
			}
		}
	}
}

// TestSeededStreamsMatchFreshSources takes generators of one seed from a
// root, a view of it and a root built by hand, draws from them interleaved
// through every method the fits call, and wants each to be the stream of
// a fresh rand.NewSource(seed): the root's unread state is copied, never
// shared or drawn from. 7 and 7+(1<<31−1) seed the same state. make
// race-cpu runs this ten times over, since interleaved copies of one
// state race only when they really do run at once.
func TestSeededStreamsMatchFreshSources(t *testing.T) {
	ds := synthDataset(20, 1)
	byHand := &Dataset{Features: ds.Features, X: ds.X, Y: ds.Y}
	draw := func(r *rand.Rand) string {
		s := []int{0, 1, 2, 3, 4, 5}
		r.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
		return fmt.Sprint(r.Int63(), r.Intn(97), r.Perm(5), s)
	}
	for _, seed := range []int64{0, -1, math.MinInt64, 1<<31 - 1, 7, 7 + (1<<31 - 1), 42} {
		for round := 0; round < 2; round++ {
			got := []*pooledRand{seededRand(ds, seed), seededRand(ds.view([]int{3, 1, 4}), seed), seededRand(byHand, seed)}
			want := make([]*rand.Rand, len(got))
			for k := range want {
				want[k] = rand.New(rand.NewSource(seed))
			}
			for step := 0; step < 20; step++ {
				for k := range got {
					if g, w := draw(got[k].Rand), draw(want[k]); g != w {
						t.Fatalf("seed %d round %d generator %d step %d: drew %s, fresh source %s", seed, round, k, step, g, w)
					}
				}
			}
			for _, r := range got {
				randPool.Put(r)
			}
		}
	}
}

func TestSVM(t *testing.T) {
	ds := synthDataset(300, 8)
	c := evalOnTrain(t, &SVM{Seed: 3}, ds)
	if c.F1() < 0.93 {
		t.Fatalf("svm train F1 = %v", c.F1())
	}
}

func TestNaiveBayes(t *testing.T) {
	ds := synthDataset(300, 9)
	m := &NaiveBayes{}
	c := evalOnTrain(t, m, ds)
	if c.F1() < 0.9 {
		t.Fatalf("nb train F1 = %v", c.F1())
	}
	p := m.Proba(ds.X[0])
	if p < 0 || p > 1 {
		t.Fatalf("proba out of range: %v", p)
	}
}

func TestNaiveBayesOneClass(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	ds, _ := NewDataset([]string{"a"}, x, []int{1, 1, 1})
	m := &NaiveBayes{}
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{2}) != 1 {
		t.Fatal("one-class NB should predict the seen class")
	}
}

func TestAllMatchersRejectEmptyAndPanicUnfitted(t *testing.T) {
	empty, _ := NewDataset([]string{"a"}, nil, nil)
	matchers := []Matcher{
		&DecisionTree{}, &RandomForest{}, &LogisticRegression{},
		&LinearRegression{}, &SVM{}, &NaiveBayes{},
	}
	for _, m := range matchers {
		if err := m.Fit(empty); err == nil {
			t.Errorf("%s: empty fit should error", m.Name())
		}
	}
	for _, m := range []Matcher{&DecisionTree{}, &RandomForest{}, &LogisticRegression{}, &LinearRegression{}, &SVM{}, &NaiveBayes{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: predict before fit should panic", m.Name())
				}
			}()
			m.Predict([]float64{1})
		}()
	}
}

func TestConfusionMetrics(t *testing.T) {
	gold := []int{1, 1, 1, 0, 0, 0}
	pred := []int{1, 1, 0, 1, 0, 0}
	c, err := Confuse(gold, pred)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 2 || c.FN != 1 || c.FP != 1 || c.TN != 2 {
		t.Fatalf("confusion: %+v", c)
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-12 {
		t.Errorf("precision = %v", c.Precision())
	}
	if math.Abs(c.Recall()-2.0/3) > 1e-12 {
		t.Errorf("recall = %v", c.Recall())
	}
	if math.Abs(c.F1()-2.0/3) > 1e-12 {
		t.Errorf("f1 = %v", c.F1())
	}
	if math.Abs(c.Accuracy()-2.0/3) > 1e-12 {
		t.Errorf("accuracy = %v", c.Accuracy())
	}
	if _, err := Confuse([]int{1}, []int{1, 0}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestConfusionVacuousConventions(t *testing.T) {
	var c Confusion
	if c.Precision() != 1 || c.Recall() != 1 || c.F1() != 1 {
		t.Fatal("vacuous precision/recall should be 1")
	}
	if c.Accuracy() != 0 {
		t.Fatal("empty accuracy should be 0")
	}
	// No predicted positives but positives exist: P=1, R=0.
	c = Confusion{FN: 5}
	if c.Precision() != 1 || c.Recall() != 0 || c.F1() != 0 {
		t.Fatalf("no-positive-prediction conventions: %+v", c)
	}
	if !strings.Contains(c.String(), "FN=5") {
		t.Fatal("string rendering")
	}
}

func TestKFold(t *testing.T) {
	folds, err := KFold(10, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("fold count = %d", len(folds))
	}
	seen := map[int]bool{}
	for _, f := range folds {
		if len(f) != 2 {
			t.Fatalf("fold size = %d", len(f))
		}
		for _, i := range f {
			if seen[i] {
				t.Fatal("index in two folds")
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Fatal("folds do not cover dataset")
	}
	if _, err := KFold(3, 5, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("k > n should error")
	}
	if _, err := KFold(3, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("k < 2 should error")
	}
}

func TestCrossValidateAndSelect(t *testing.T) {
	ds := synthDataset(200, 10)
	res, err := SelectMatcher(DefaultFactories(1), ds, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("results = %d", len(res))
	}
	// Sorted by F1 descending.
	for i := 1; i < len(res); i++ {
		if res[i].F1 > res[i-1].F1 {
			t.Fatal("results not sorted")
		}
	}
	// On near-separable data the best matcher should do well.
	if res[0].F1 < 0.9 {
		t.Fatalf("best matcher F1 = %v", res[0].F1)
	}
	if _, err := SelectMatcher(nil, ds, 5, 1); err == nil {
		t.Fatal("no factories should error")
	}
}

func TestSelectMatcherDeterminism(t *testing.T) {
	ds := synthDataset(150, 11)
	r1, err := SelectMatcher(DefaultFactories(1), ds, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SelectMatcher(DefaultFactories(1), ds, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("selection must be deterministic for a fixed seed")
		}
	}
}

func TestLeaveOneOutDebugFlagsFlippedLabel(t *testing.T) {
	ds := synthDataset(120, 12)
	// Deliberately corrupt one clearly-positive label.
	corrupt := -1
	for i := range ds.X {
		if ds.X[i][0]+ds.X[i][1] > 1.6 && ds.Y[i] == 1 {
			ds.Y[i] = 0
			corrupt = i
			break
		}
	}
	if corrupt < 0 {
		t.Skip("no clearly positive example found")
	}
	mismatches, err := LeaveOneOutDebug(Factory{Name: "rf", New: func() Matcher { return &RandomForest{Trees: 15, Seed: 5} }}, ds)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range mismatches {
		if m.Index == corrupt && m.Predicted == 1 && m.Gold == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("LOOCV did not flag the corrupted label (mismatches: %+v)", mismatches)
	}
	if _, err := LeaveOneOutDebug(Factory{Name: "t", New: func() Matcher { return &DecisionTree{} }}, ds.Subset([]int{0})); err == nil {
		t.Fatal("LOOCV on 1 example should error")
	}
}

func TestSplitDebug(t *testing.T) {
	ds := synthDataset(100, 13)
	mismatches, err := SplitDebug(context.Background(), Factory{Name: "dt", New: func() Matcher { return &DecisionTree{MaxDepth: 2} }}, ds, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(mismatches); i++ {
		if mismatches[i].Index < mismatches[i-1].Index {
			t.Fatal("mismatches not sorted by index")
		}
	}
	if _, err := SplitDebug(context.Background(), Factory{Name: "dt", New: func() Matcher { return &DecisionTree{} }}, ds.Subset([]int{0, 1}), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("tiny dataset should error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SplitDebug(ctx, Factory{Name: "dt", New: func() Matcher { return &DecisionTree{} }}, ds, rand.New(rand.NewSource(3))); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled split debug: err = %v, want context.Canceled", err)
	}
}
