// Package ml implements the learning-based matchers and model-selection
// machinery the case study drives through PyMatcher: decision tree, random
// forest, Gaussian naive Bayes, logistic regression, linear regression and
// linear SVM classifiers, k-fold cross-validation, leave-one-out label
// debugging, and the precision/recall/F1 metrics — the role scikit-learn
// plays for PyMatcher, implemented from scratch on the standard library.
package ml

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"emgo/internal/drift"
	"emgo/internal/fault"
	"emgo/internal/obs"
	"emgo/internal/parallel"
)

// Dataset is a supervised binary-classification dataset: one feature
// vector and one {0,1} label per example. Feature values must be finite
// (impute missing values before constructing a Dataset; see
// internal/feature).
type Dataset struct {
	Features []string    // column names, len = feature count
	X        [][]float64 // row-major examples
	Y        []int       // labels, 0 = non-match, 1 = match
}

// NewDataset validates and wraps the given matrix and labels.
func NewDataset(features []string, x [][]float64, y []int) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d examples but %d labels", len(x), len(y))
	}
	for i, row := range x {
		if len(row) != len(features) {
			return nil, fmt.Errorf("ml: example %d has %d features, want %d", i, len(row), len(features))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("ml: example %d feature %d (%s) is not finite", i, j, features[j])
			}
		}
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return nil, fmt.Errorf("ml: label %d at example %d is not 0/1", label, i)
		}
	}
	return &Dataset{Features: features, X: x, Y: y}, nil
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the feature count.
func (d *Dataset) NumFeatures() int { return len(d.Features) }

// Positives returns the number of label-1 examples.
func (d *Dataset) Positives() int {
	n := 0
	for _, y := range d.Y {
		n += y
	}
	return n
}

// Subset returns a new dataset containing the examples at idx (rows are
// shared, not copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	x := make([][]float64, len(idx))
	y := make([]int, len(idx))
	for k, i := range idx {
		x[k] = d.X[i]
		y[k] = d.Y[i]
	}
	return &Dataset{Features: d.Features, X: x, Y: y}
}

// Split partitions the dataset into two halves (the I/J split used for
// matcher debugging in Section 9): a random fraction frac goes to the
// first, the rest to the second.
func (d *Dataset) Split(frac float64, rng *rand.Rand) (*Dataset, *Dataset, error) {
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("ml: split fraction %v out of (0,1)", frac)
	}
	perm := rng.Perm(d.Len())
	cut := int(float64(d.Len()) * frac)
	if cut == 0 || cut == d.Len() {
		return nil, nil, fmt.Errorf("ml: split of %d examples at %v leaves a side empty", d.Len(), frac)
	}
	return d.Subset(perm[:cut]), d.Subset(perm[cut:]), nil
}

// Matcher is a trainable binary classifier over feature vectors. Fit must
// be called before Predict.
type Matcher interface {
	// Fit trains on ds.
	Fit(ds *Dataset) error
	// Predict returns the 0/1 label for one feature vector.
	Predict(x []float64) int
	// Name identifies the matcher ("decision_tree", "random_forest", ...).
	Name() string
}

// ProbabilisticMatcher is a Matcher that can also report a match
// probability (used for ranking and debugging).
type ProbabilisticMatcher interface {
	Matcher
	// Proba returns P(match) in [0,1] for one feature vector.
	Proba(x []float64) float64
}

// PredictAll applies a fitted matcher to every row of x.
func PredictAll(m Matcher, x [][]float64) []int {
	predictions := obs.C("ml.predictions")
	out := make([]int, len(x))
	for i, row := range x {
		out[i] = m.Predict(row)
		predictions.Inc()
	}
	return out
}

// PredictAllCtx is PredictAll under the hardened runtime: prediction is
// fanned out across workers, stops on cancellation, and a panicking
// matcher (malformed row, unfitted model) surfaces as an error carrying
// the failing row index instead of crashing — the hook workflows use to
// quarantine poison pairs. Each row also passes the "ml.predict"
// fault-injection site.
func PredictAllCtx(ctx context.Context, m Matcher, x [][]float64) ([]int, error) {
	pctx, sp := obs.StartSpan(ctx, "ml.predict")
	defer sp.End()
	sp.SetItems(len(x))
	predictions := obs.C("ml.predictions")
	// prof is the quality-profile collector of a monitored run, nil
	// otherwise. The scored path (Proba) runs only when a collector is
	// armed, so the disabled path stays one nil check per row.
	prof := drift.FromContext(ctx)
	pm, probabilistic := m.(ProbabilisticMatcher)
	out := make([]int, len(x))
	err := parallel.ForCtx(pctx, len(x), func(i int) error {
		if err := fault.InjectIdx("ml.predict", i); err != nil {
			return err
		}
		out[i] = m.Predict(x[i])
		if prof != nil {
			score, scored := 0.0, false
			if probabilistic {
				score, scored = pm.Proba(x[i]), true
			}
			prof.ObservePrediction(out[i], score, scored)
		}
		predictions.Inc()
		return nil
	})
	if err != nil {
		sp.SetOutcome(obs.OutcomeAborted)
		return nil, fmt.Errorf("ml: predict: %w", err)
	}
	sp.SetOutcome(obs.OutcomeOK)
	return out, nil
}
