package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func benchData(b *testing.B, n int) *Dataset {
	b.Helper()
	return synthDataset(n, 99)
}

func BenchmarkDecisionTreeFit(b *testing.B) {
	ds := benchData(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := &DecisionTree{}
		if err := tree.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomForestFit(b *testing.B) {
	ds := benchData(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &RandomForest{Trees: 10, Seed: 1}
		if err := f.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogisticRegressionFit(b *testing.B) {
	ds := benchData(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &LogisticRegression{}
		if err := m.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinearRegressionFit and BenchmarkSVMFit fit on the study's
// shape, as Section 9's cross-validation does once per fold.
func BenchmarkLinearRegressionFit(b *testing.B) {
	ds := studyData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := (&LinearRegression{}).Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVMFit(b *testing.B) {
	ds := studyData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := (&SVM{Seed: 1}).Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreePredict(b *testing.B) {
	ds := benchData(b, 500)
	tree := &DecisionTree{}
	if err := tree.Fit(ds); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(ds.X[i%ds.Len()])
	}
}

// studyData is shaped like the case study's labelled set after
// imputation: 150 pairs × 25 similarity features, a third of them matches.
// Scores are rounded to twentieths with many exact 0s and 1s, so values
// tie heavily, and two columns are constant (a feature the imputer filled
// throughout).
func studyData() *Dataset {
	rng := rand.New(rand.NewSource(41))
	x := make([][]float64, 150)
	y := make([]int, len(x))
	names := make([]string, 25)
	for j := range names {
		names[j] = fmt.Sprintf("sim%d", j)
	}
	for i := range x {
		if i%3 == 0 {
			y[i] = 1
		}
		row := make([]float64, len(names))
		for j := range row {
			s := rng.Float64()*0.6 + 0.4*float64(y[i])
			switch {
			case j >= 23:
				s = 0.5
			case s < 0.15:
				s = 0
			case s > 0.85:
				s = 1
			}
			row[j] = math.Round(s*20) / 20
		}
		x[i] = row
	}
	ds, err := NewDataset(names, x, y)
	if err != nil {
		panic(err)
	}
	return ds
}

// BenchmarkLeaveOneOutForest is the Section 8 label-debugging pass at the
// study's size: 150 random forests, each on all examples but one.
func BenchmarkLeaveOneOutForest(b *testing.B) {
	ds := studyData()
	f := Factory{Name: "random_forest", New: func() Matcher { return &RandomForest{Seed: 1} }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeaveOneOutDebug(f, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectMatcher is one Section 9 selection at the study's size:
// six matchers × five folds.
func BenchmarkSelectMatcher(b *testing.B) {
	ds := studyData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectMatcher(DefaultFactories(1), ds, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossValidateTree(b *testing.B) {
	ds := benchData(b, 300)
	f := Factory{Name: "decision_tree", New: func() Matcher { return &DecisionTree{} }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectMatcher([]Factory{f}, ds, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}
