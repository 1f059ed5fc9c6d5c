package ml

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"

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
// error naming the failing tree index instead of killing the process. A
// failed fit leaves the forest unfitted.
func (f *RandomForest) FitCtx(ctx context.Context, ds *Dataset) error {
	if ds.Len() == 0 {
		return fmt.Errorf("ml: random forest: empty dataset")
	}
	n := f.Trees
	if n <= 0 {
		n = 10
	}
	subset := int(math.Sqrt(float64(ds.NumFeatures())))
	if subset < 1 {
		subset = 1
	}
	// Draw every tree's bootstrap sample and split seed up front, in a
	// fixed order, so the parallel fit below is bit-identical to a
	// sequential one. A bootstrap is a count vector over the root's rows.
	root, p := ds.presorted()
	boots := make([]int32, n*p.n)
	seeds := make([]int64, n)
	rng := seededRand(ds, f.Seed)
	for k := 0; k < n; k++ {
		boot := boots[k*p.n : (k+1)*p.n]
		for i := 0; i < ds.Len(); i++ {
			boot[ds.rootRow(rng.Intn(ds.Len()))]++
		}
		seeds[k] = rng.Int63()
	}
	randPool.Put(rng)
	fctx, sp := obs.StartSpan(ctx, "ml.fit")
	defer sp.End()
	sp.SetItems(n)
	f.trees = make([]*DecisionTree, n)
	err := parallel.ForCtx(fctx, n, func(k int) error {
		rng := seededRand(ds, seeds[k])
		tree := &DecisionTree{
			MaxDepth:      f.MaxDepth,
			featureSubset: subset,
			rng:           rng.Rand,
		}
		g := getGrower(root, p)
		for r, c := range boots[k*p.n : (k+1)*p.n] {
			if c > 0 {
				g.add(int32(r), c)
			}
		}
		tree.grow(g, ds.Features)
		g.release()
		randPool.Put(rng)
		tree.rng = nil
		f.trees[k] = tree
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

// seedStates is a root's source per seed its fits ask for, seeded once and
// never drawn from: copying a 607-word state costs a fraction of seeding.
type seedStates struct {
	mu  sync.Mutex
	src map[int64]rand.Source
}

// source returns seed's unread state (fresh on a root built by hand).
func (s *seedStates) source(seed int64) rand.Source {
	if s == nil {
		return rand.NewSource(seed)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.src[seed] == nil {
		s.src[seed] = rand.NewSource(seed)
	}
	return s.src[seed]
}

type pooledRand struct {
	*rand.Rand
	src rand.Source // the source under Rand, which seededRand overwrites
}

var randPool = sync.Pool{New: func() any {
	src := rand.NewSource(0)
	return &pooledRand{rand.New(src), src}
}}

// seededRand takes a pooled generator whose stream is exactly
// rand.New(rand.NewSource(seed))'s: math/rand has no clone, so it copies
// the state ds's root keeps for seed. Hand it back with randPool.Put.
func seededRand(ds *Dataset, seed int64) *pooledRand {
	r := randPool.Get().(*pooledRand)
	reflect.ValueOf(r.src).Elem().Set(reflect.ValueOf(ds.root().seeds.source(seed)).Elem())
	return r
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
