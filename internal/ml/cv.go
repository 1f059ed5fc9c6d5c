package ml

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"emgo/internal/obs"
	"emgo/internal/parallel"
)

// Factory constructs fresh, unfitted matchers so cross-validation can train
// one per fold.
type Factory struct {
	Name string
	New  func() Matcher
}

// DefaultFactories returns the six matchers the case study compares in
// Section 9: decision tree, SVM, random forest, logistic regression, naive
// Bayes, and linear regression. seed makes the stochastic ones
// deterministic.
func DefaultFactories(seed int64) []Factory {
	return []Factory{
		{Name: "decision_tree", New: func() Matcher { return &DecisionTree{} }},
		{Name: "svm", New: func() Matcher { return &SVM{Seed: seed} }},
		{Name: "random_forest", New: func() Matcher { return &RandomForest{Seed: seed} }},
		{Name: "logistic_regression", New: func() Matcher { return &LogisticRegression{} }},
		{Name: "naive_bayes", New: func() Matcher { return &NaiveBayes{} }},
		{Name: "linear_regression", New: func() Matcher { return &LinearRegression{} }},
	}
}

// FactoryByName returns the DefaultFactories(seed) entry called name.
func FactoryByName(name string, seed int64) (Factory, error) {
	for _, f := range DefaultFactories(seed) {
		if f.Name == name {
			return f, nil
		}
	}
	return Factory{}, fmt.Errorf("ml: unknown matcher %q", name)
}

// CVResult is the cross-validated accuracy of one matcher.
type CVResult struct {
	Name      string
	Precision float64
	Recall    float64
	F1        float64
	Folds     int
}

// KFold splits indices 0..n-1 into k shuffled folds of near-equal size.
func KFold(n, k int, rng *rand.Rand) ([][]int, error) {
	if k < 2 || k > n {
		return nil, fmt.Errorf("ml: k-fold with k=%d over %d examples", k, n)
	}
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, p := range perm {
		folds[i%k] = append(folds[i%k], p)
	}
	return folds, nil
}

// CrossValidate trains and evaluates the factory's matcher with k-fold
// cross-validation, returning precision/recall/F1 averaged over folds —
// the Section 9 matcher-selection procedure.
func CrossValidate(f Factory, ds *Dataset, k int, rng *rand.Rand) (CVResult, error) {
	folds, err := KFold(ds.Len(), k, rng)
	if err != nil {
		return CVResult{}, err
	}
	res, err := crossValidate(context.Background(), []Factory{f}, ds, folds)
	if err != nil {
		return CVResult{}, err
	}
	return res[0], nil
}

// crossValidate fits every factory on every fold's training view in
// parallel, scores each fit on its held-out view, and averages each
// factory's folds in fold order, so the results do not depend on how the
// fits were scheduled. The fits stop dispatching once ctx is done.
func crossValidate(ctx context.Context, factories []Factory, ds *Dataset, folds [][]int) ([]CVResult, error) {
	k := len(folds)
	train, test := make([]*Dataset, k), make([]*Dataset, k)
	for fi := range folds {
		idx := make([]int, 0, ds.Len()-len(folds[fi]))
		for fj := range folds {
			if fj != fi {
				idx = append(idx, folds[fj]...)
			}
		}
		train[fi], test[fi] = ds.view(idx), ds.view(folds[fi])
	}
	cvFolds := obs.C("ml.cv.folds")
	confs := make([]Confusion, len(factories)*k)
	err := parallel.ForCtx(ctx, len(confs), func(i int) error {
		f, fi := factories[i/k], i%k
		cvFolds.Inc()
		m := f.New()
		if err := fitView(m, train[fi]); err != nil {
			return fmt.Errorf("ml: cv %s fold %d: %w", f.Name, fi, err)
		}
		confs[i] = score(m, test[fi])
		return nil
	})
	if err != nil {
		// Name the failing fit, not the parallel work index.
		var ie *parallel.IndexError
		if errors.As(err, &ie) {
			return nil, ie.Err
		}
		return nil, err
	}
	results := make([]CVResult, len(factories))
	for i, f := range factories {
		res := CVResult{Name: f.Name, Folds: k}
		for _, conf := range confs[i*k : (i+1)*k] {
			res.Precision += conf.Precision()
			res.Recall += conf.Recall()
			res.F1 += conf.F1()
		}
		res.Precision /= float64(k)
		res.Recall /= float64(k)
		res.F1 /= float64(k)
		results[i] = res
	}
	return results, nil
}

// score tallies m's predictions on every example of ds.
func score(m Matcher, ds *Dataset) Confusion {
	predictions := obs.C("ml.predictions")
	var c Confusion
	for i := 0; i < ds.Len(); i++ {
		c.add(ds.label(i), m.Predict(ds.row(i)))
		predictions.Inc()
	}
	return c
}

// SelectMatcher cross-validates every factory and returns all results
// sorted by F1 descending (ties broken by name for determinism); the first
// entry is the selected matcher. Every factory is scored on the same
// seeded fold split, so the comparison is paired.
func SelectMatcher(factories []Factory, ds *Dataset, k int, seed int64) ([]CVResult, error) {
	return SelectMatcherCtx(context.Background(), factories, ds, k, seed)
}

// SelectMatcherCtx is SelectMatcher honouring ctx: the factories × folds
// fits stop dispatching once ctx is done, and ctx's error is returned.
func SelectMatcherCtx(ctx context.Context, factories []Factory, ds *Dataset, k int, seed int64) ([]CVResult, error) {
	if len(factories) == 0 {
		return nil, fmt.Errorf("ml: no matchers to select from")
	}
	folds, err := KFold(ds.Len(), k, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	results, err := crossValidate(ctx, factories, ds, folds)
	if err != nil {
		return nil, err
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].F1 != results[j].F1 {
			return results[i].F1 > results[j].F1
		}
		return results[i].Name < results[j].Name
	})
	return results, nil
}

// Mismatch is one example where a matcher's prediction disagrees with its
// gold label — the unit of both label debugging (Section 8) and matcher
// debugging (Section 9).
type Mismatch struct {
	Index     int // example index in the dataset
	Gold      int
	Predicted int
}

// LeaveOneOutDebug trains the factory's matcher on all examples but one,
// predicts the left-out example, and reports every disagreement — the
// label-debugging procedure of Section 8 ("Debugging the Labeled Sample").
func LeaveOneOutDebug(f Factory, ds *Dataset) ([]Mismatch, error) {
	return LeaveOneOutDebugCtx(context.Background(), f, ds)
}

// LeaveOneOutDebugCtx is LeaveOneOutDebug honouring ctx: the n retrains
// stop dispatching once ctx is done, and a panic inside one fold's fit
// surfaces as an error naming the fold instead of killing the process.
func LeaveOneOutDebugCtx(ctx context.Context, f Factory, ds *Dataset) ([]Mismatch, error) {
	if ds.Len() < 2 {
		return nil, fmt.Errorf("ml: leave-one-out needs at least 2 examples")
	}
	preds := make([]int, ds.Len())
	err := parallel.ForCtx(ctx, ds.Len(), func(leave int) error {
		idx := make([]int, 0, ds.Len()-1)
		for i := 0; i < ds.Len(); i++ {
			if i != leave {
				idx = append(idx, i)
			}
		}
		m := f.New()
		if err := fitView(m, ds.view(idx)); err != nil {
			return fmt.Errorf("ml: loocv at %d: %w", leave, err)
		}
		preds[leave] = m.Predict(ds.row(leave))
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Mismatch
	for leave := 0; leave < ds.Len(); leave++ {
		if gold := ds.label(leave); preds[leave] != gold {
			out = append(out, Mismatch{Index: leave, Gold: gold, Predicted: preds[leave]})
		}
	}
	return out, nil
}

// SplitDebug implements the Section 9 matcher-debugging procedure: split
// the labeled data in half, train on each half and predict the other,
// reporting all mismatches (indices refer to the full dataset).
func SplitDebug(f Factory, ds *Dataset, rng *rand.Rand) ([]Mismatch, error) {
	if ds.Len() < 4 {
		return nil, fmt.Errorf("ml: split debug needs at least 4 examples")
	}
	perm := rng.Perm(ds.Len())
	half := ds.Len() / 2
	i1, i2 := perm[:half], perm[half:]
	var out []Mismatch
	for _, pass := range [][2][]int{{i1, i2}, {i2, i1}} {
		trainIdx, testIdx := pass[0], pass[1]
		m := f.New()
		if err := fitView(m, ds.view(trainIdx)); err != nil {
			return nil, err
		}
		for _, i := range testIdx {
			pred := m.Predict(ds.row(i))
			if gold := ds.label(i); pred != gold {
				out = append(out, Mismatch{Index: i, Gold: gold, Predicted: pred})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out, nil
}
