package feature

import (
	"fmt"
	"math"
)

// Imputer replaces missing (NaN) feature values with per-column means
// learned from training data — the Section 9 workaround for learners that
// "cannot work with missing values in the feature vectors".
type Imputer struct {
	means []float64
}

// FitImputer learns column means over the non-NaN entries of x. A column
// that is entirely missing imputes to 0.
func FitImputer(x [][]float64) (*Imputer, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("feature: imputer needs at least one row")
	}
	nf := len(x[0])
	means := make([]float64, nf)
	counts := make([]int, nf)
	for _, row := range x {
		if len(row) != nf {
			return nil, fmt.Errorf("feature: ragged feature matrix")
		}
		for j, v := range row {
			if !math.IsNaN(v) {
				means[j] += v
				counts[j]++
			}
		}
	}
	for j := range means {
		if counts[j] > 0 {
			means[j] /= float64(counts[j])
		}
	}
	return &Imputer{means: means}, nil
}

// Fill replaces the NaNs of x with the learned means in place — for the
// caller that owns x, as workflow.PredictPairs owns the rows VectorizeCtx
// just made for it.
func (im *Imputer) Fill(x [][]float64) error {
	for i, row := range x {
		if len(row) != len(im.means) {
			return fmt.Errorf("feature: row %d has %d features, imputer has %d", i, len(row), len(im.means))
		}
		for j, v := range row {
			if math.IsNaN(v) {
				row[j] = im.means[j]
			}
		}
	}
	return nil
}

// Transform returns a copy of x with NaNs replaced by the learned means,
// for callers that keep the raw matrix.
func (im *Imputer) Transform(x [][]float64) ([][]float64, error) {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = append(make([]float64, 0, len(row)), row...)
	}
	if err := im.Fill(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Restrict returns the imputer of the vectors Set.Restrict(read) makes:
// the means of the columns read marks, in order. read must be as wide as
// the imputer.
func (im *Imputer) Restrict(read []bool) (*Imputer, error) {
	if len(read) != len(im.means) {
		return nil, fmt.Errorf("feature: %d read marks for an imputer of %d features", len(read), len(im.means))
	}
	out := &Imputer{}
	for k, m := range im.means {
		if read[k] {
			out.means = append(out.means, m)
		}
	}
	return out, nil
}

// Means returns the learned column means (a copy).
func (im *Imputer) Means() []float64 {
	out := make([]float64, len(im.means))
	copy(out, im.means)
	return out
}

// ImputerFromMeans rebuilds an imputer from persisted column means (the
// deployment path: the means are learned in development and shipped with
// the workflow spec).
func ImputerFromMeans(means []float64) *Imputer {
	m := make([]float64, len(means))
	copy(m, means)
	return &Imputer{means: m}
}
