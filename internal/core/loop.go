package core

import (
	"context"
	"fmt"
	"math/rand"

	"emgo/internal/block"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/rules"
	"emgo/internal/table"
)

// The development loop's steps behind Project's methods, for callers
// dropping a level below it: the paper's numbers and the examples come
// from one implementation of each.

// SampleUnlabelled draws n pairs of cand that labels holds no label for
// (every one of them when fewer are left), at random from rng — one
// round of Section 8's sampling.
func SampleUnlabelled(cand *block.CandidateSet, labels *label.Store, n int, rng *rand.Rand) ([]block.Pair, error) {
	fresh := cand.Filter(func(p block.Pair) bool { return !labels.Has(p) })
	return fresh.Sample(min(n, fresh.Len()), rng)
}

// TrainingData is what a matcher trains on: the decided (Yes/No) pairs
// of labels, less the pairs the sure rules judge a Match (Section 9: "we
// removed the pairs labeled Unsure and sure matches"), vectorized over fs
// and imputed. pairs[i] is the dataset's row i, and im is the imputer
// fitted on the raw vectors: a matcher fitted on ds predicts with it.
func TrainingData(ctx context.Context, left, right *table.Table, labels *label.Store, sure *rules.Engine, fs *feature.Set) (ds *ml.Dataset, pairs []block.Pair, im *feature.Imputer, err error) {
	if fs == nil {
		return nil, nil, nil, fmt.Errorf("core: generate features before training")
	}
	decided, y := labels.Decided()
	var kept []int
	for i, p := range decided {
		if sure.Judge(left.Row(p.A), right.Row(p.B)) == rules.Match {
			continue
		}
		pairs = append(pairs, p)
		kept = append(kept, y[i])
	}
	if len(pairs) == 0 {
		return nil, nil, nil, fmt.Errorf("core: no decided labels outside the sure matches to train on")
	}
	x, err := fs.VectorizeCtx(ctx, left, right, pairs)
	if err != nil {
		return nil, nil, nil, err
	}
	if im, err = feature.FitImputer(x); err != nil {
		return nil, nil, nil, err
	}
	if x, err = im.Transform(x); err != nil {
		return nil, nil, nil, err
	}
	if ds, err = ml.NewDataset(fs.Names(), x, kept); err != nil {
		return nil, nil, nil, err
	}
	return ds, pairs, im, nil
}

// FlagLabels is Section 8's label debugging: leave-one-out over ds with a
// random forest of seed, returning, in row order, the pairs (pairs[i] is
// ds's row i) whose label disagrees with the model trained without them.
// The retrains stop dispatching once ctx is done.
func FlagLabels(ctx context.Context, ds *ml.Dataset, pairs []block.Pair, seed int64) ([]block.Pair, error) {
	flagged, err := ml.LeaveOneOutDebugCtx(ctx, ml.Factory{
		Name: "random_forest",
		New:  func() ml.Matcher { return &ml.RandomForest{Seed: seed} },
	}, ds)
	if err != nil {
		return nil, err
	}
	out := make([]block.Pair, len(flagged))
	for i, m := range flagged {
		out[i] = pairs[m.Index]
	}
	return out, nil
}
