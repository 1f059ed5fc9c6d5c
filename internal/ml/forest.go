package ml

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"emgo/internal/fault"
	"emgo/internal/obs"
	"emgo/internal/parallel"
)

// RandomForest is a bagged ensemble of CART trees with per-split feature
// subsampling (sqrt of the feature count). It is the matcher the case
// study initially selects before the case-feature fix (Section 9).
type RandomForest struct {
	// Trees is the ensemble size (default 10, matching scikit-learn's
	// historical default that PyMatcher used).
	Trees int
	// MaxDepth bounds each tree; 0 means unbounded.
	MaxDepth int
	// Seed makes training deterministic.
	Seed int64

	trees []*DecisionTree
}

// Name implements Matcher.
func (f *RandomForest) Name() string { return "random_forest" }

// Fit implements Matcher.
func (f *RandomForest) Fit(ds *Dataset) error {
	return f.FitCtx(context.Background(), ds)
}

// FitCtx is Fit under the hardened runtime: training stops dispatching
// trees on cancellation, and a panic inside one tree's fit surfaces as an
// error naming the failing tree index instead of killing the process.
// Each tree also passes the "ml.forest.fit" fault-injection site. A
// failed fit leaves the forest unfitted.
func (f *RandomForest) FitCtx(ctx context.Context, ds *Dataset) error {
	if ds.Len() == 0 {
		return fmt.Errorf("ml: random forest: empty dataset")
	}
	n := f.Trees
	if n <= 0 {
		n = 10
	}
	rng := rand.New(rand.NewSource(f.Seed))
	subset := int(math.Sqrt(float64(ds.NumFeatures())))
	if subset < 1 {
		subset = 1
	}
	// Draw every tree's bootstrap sample and split seed up front, in a
	// fixed order, so the parallel fit below is bit-identical to a
	// sequential one.
	boots := make([]*Dataset, n)
	seeds := make([]int64, n)
	for k := 0; k < n; k++ {
		idx := make([]int, ds.Len())
		for i := range idx {
			idx[i] = rng.Intn(ds.Len())
		}
		boots[k] = ds.Subset(idx)
		seeds[k] = rng.Int63()
	}
	fctx, sp := obs.StartSpan(ctx, "ml.fit")
	defer sp.End()
	sp.SetItems(n)
	trees := obs.C("ml.trees_fit")
	f.trees = make([]*DecisionTree, n)
	err := parallel.ForCtx(fctx, n, func(k int) error {
		if err := fault.InjectIdx("ml.forest.fit", k); err != nil {
			return err
		}
		tree := &DecisionTree{
			MaxDepth:      f.MaxDepth,
			featureSubset: subset,
			rng:           rand.New(rand.NewSource(seeds[k])),
		}
		if err := tree.Fit(boots[k]); err != nil {
			return err
		}
		f.trees[k] = tree
		trees.Inc()
		return nil
	})
	if err != nil {
		f.trees = nil
		sp.SetOutcome(obs.OutcomeAborted)
		return fmt.Errorf("ml: random forest: %w", err)
	}
	sp.SetOutcome(obs.OutcomeOK)
	return nil
}

// Proba implements ProbabilisticMatcher: the fraction of trees voting
// match.
func (f *RandomForest) Proba(x []float64) float64 {
	if len(f.trees) == 0 {
		panic("ml: random forest used before Fit")
	}
	votes := 0
	for _, t := range f.trees {
		votes += t.Predict(x)
	}
	return float64(votes) / float64(len(f.trees))
}

// Predict implements Matcher by majority vote.
func (f *RandomForest) Predict(x []float64) int {
	if f.Proba(x) >= 0.5 {
		return 1
	}
	return 0
}
