// Package ml implements the learning-based matchers and model-selection
// machinery the case study drives through PyMatcher: decision tree, random
// forest, Gaussian naive Bayes, logistic regression, linear regression and
// linear SVM classifiers, k-fold cross-validation, leave-one-out label
// debugging, and the precision/recall/F1 metrics — the role scikit-learn
// plays for PyMatcher, implemented from scratch on the standard library.
package ml

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"emgo/internal/obs"
	"emgo/internal/parallel"
)

// Dataset is a supervised binary-classification dataset: one feature
// vector and one {0,1} label per example. Feature values must be finite
// (impute missing values before constructing a Dataset; see
// internal/feature).
//
// A dataset is a root or a view. NewDataset makes a root and presorts
// it once; Subset, Split, cross-validation folds and leave-one-out sets
// are views: the root plus the root row behind each example, with
// nothing copied. A view reads its root's rows and labels, so its X and
// Y are read-only. A root's X must not change after NewDataset (its
// labels may).
type Dataset struct {
	Features []string    // column names, len = feature count
	X        [][]float64 // row-major examples, in view order
	Y        []int       // labels, 0 = non-match, 1 = match

	// base is the root of a view and nil on a root; rows maps a view's
	// examples to base's rows.
	base *Dataset
	rows []int
	// sorted is a root's presorted matrix; nil on a Dataset built by hand,
	// whose fits presort it per call.
	sorted *presort
	// seeds is a root's unread generator states, shared by its views.
	seeds *seedStates
}

// presort is a root's matrix laid out for split scans: column-major
// values, each cell's id among its feature's distinct values, and every
// feature's distinct values in ascending order, all features in one slab.
// A split scan counts a node's rows per id and walks the ids in order.
type presort struct {
	n, nf int
	col   []float64 // col[j*n+i] = X[i][j]
	vid   []int32   // vid[j*n+i] = id of X[i][j] among feature j's distinct values
	vals  []float64 // vals[off[j]+id] = feature j's value numbered id
	off   []int32   // feature j's distinct values are vals[off[j]:off[j+1]]
}

// NewDataset validates and wraps the given matrix and labels, and
// presorts the matrix for the tree fitters.
func NewDataset(features []string, x [][]float64, y []int) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d examples but %d labels", len(x), len(y))
	}
	if len(x) > math.MaxInt32 {
		return nil, fmt.Errorf("ml: %d examples exceed the presort's int32 rows", len(x))
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
	return &Dataset{Features: features, X: x, Y: y, sorted: presortRows(x, len(features)), seeds: &seedStates{src: map[int64]rand.Source{}}}, nil
}

// presortRows lays the n×nf matrix x out column-major and numbers each
// feature's distinct values in ascending order. -0 and +0 share an id:
// == holds between them, so a split is never placed between the two.
func presortRows(x [][]float64, nf int) *presort {
	n := len(x)
	p := &presort{n: n, nf: nf, col: make([]float64, n*nf), off: make([]int32, nf+1)}
	for i, row := range x {
		for j, v := range row {
			p.col[j*n+i] = v
		}
	}
	// One feature's rows in value order live in n spare ids past the
	// last feature's, so the sort needs no slice of its own.
	vid := make([]int32, (nf+1)*n)
	p.vid = vid[: nf*n : nf*n]
	byValue := vid[nf*n:]
	for j := 0; j < nf; j++ {
		c, id := p.col[j*n:(j+1)*n], p.vid[j*n:(j+1)*n]
		for i := range byValue {
			byValue[i] = int32(i)
		}
		slices.SortFunc(byValue, func(a, b int32) int { return cmp.Compare(c[a], c[b]) })
		d := int32(0)
		for k, i := range byValue {
			if k == 0 || c[i] != c[byValue[k-1]] {
				d++
			}
			id[i] = d - 1
		}
		p.off[j+1] = p.off[j] + d
	}
	p.vals = make([]float64, p.off[nf])
	for k, v := range p.col {
		p.vals[p.off[k/n]+p.vid[k]] = v
	}
	return p
}

// root returns the dataset a view reads from: d itself on a root.
func (d *Dataset) root() *Dataset {
	if d.base != nil {
		return d.base
	}
	return d
}

// presorted returns d's root and the root's presort, computing the
// presort when the root was built by hand rather than by NewDataset.
func (d *Dataset) presorted() (*Dataset, *presort) {
	r := d.root()
	if r.sorted != nil {
		return r, r.sorted
	}
	return r, presortRows(r.X, len(r.Features))
}

// rootRow returns the root row behind example k.
func (d *Dataset) rootRow(k int) int {
	if d.base != nil {
		return d.rows[k]
	}
	return k
}

// row returns example k's feature vector without copying it.
func (d *Dataset) row(k int) []float64 {
	if d.base != nil {
		return d.base.X[d.rows[k]]
	}
	return d.X[k]
}

// label returns example k's label, read from the root.
func (d *Dataset) label(k int) int {
	if d.base != nil {
		return d.base.Y[d.rows[k]]
	}
	return d.Y[k]
}

// view returns the examples at idx of d as a view of d's root. On a root
// the view keeps idx as its rows, so the caller must not change it
// afterwards. X and Y are left nil: the package's matchers read a view
// through row and label (see fitView).
func (d *Dataset) view(idx []int) *Dataset {
	if d.base != nil {
		rows := make([]int, len(idx))
		for k, i := range idx {
			rows[k] = d.rows[i]
		}
		idx = rows
	}
	return &Dataset{Features: d.Features, base: d.root(), rows: idx}
}

// filled returns the view d with X and Y in view order, for readers
// outside the package.
func (d *Dataset) filled() *Dataset {
	if d.base == nil || d.X != nil {
		return d
	}
	out := *d
	out.X = make([][]float64, len(d.rows))
	out.Y = make([]int, len(d.rows))
	for k, r := range d.rows {
		out.X[k] = d.base.X[r]
		out.Y[k] = d.base.Y[r]
	}
	return &out
}

// Len returns the number of examples: a root has no rows and a view's X
// is empty or as long as its rows, so the longer of the two is the count.
func (d *Dataset) Len() int { return max(len(d.X), len(d.rows)) }

// NumFeatures returns the feature count.
func (d *Dataset) NumFeatures() int { return len(d.Features) }

// Positives returns the number of label-1 examples.
func (d *Dataset) Positives() int {
	n := 0
	for k := 0; k < d.Len(); k++ {
		n += d.label(k)
	}
	return n
}

// Subset returns the examples at idx as a view of d's root: its X shares
// the root's rows and its Y holds their labels, both in idx order and
// read-only (fits read the root).
func (d *Dataset) Subset(idx []int) *Dataset {
	return d.view(slices.Clone(idx)).filled()
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
	return d.view(perm[:cut]).filled(), d.view(perm[cut:]).filled(), nil
}

// fitView trains m on the view v. The package's own matchers read a view
// through row and label; any other Matcher is handed v with X and Y
// filled in.
func fitView(m Matcher, v *Dataset) error {
	switch m.(type) {
	case *DecisionTree, *RandomForest, *LogisticRegression, *LinearRegression, *SVM, *NaiveBayes:
		return m.Fit(v)
	}
	return m.Fit(v.filled())
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
	out := make([]int, len(x))
	for i, row := range x {
		out[i] = m.Predict(row)
	}
	return out
}

// PredictAllCtx is PredictAll under the hardened runtime: prediction is
// fanned out across workers, stops on cancellation, and a panicking
// matcher (malformed row, unfitted model) surfaces as an error carrying
// the failing row index instead of crashing — the hook workflows use to
// name a poison pair.
//
// A call the light-work rule gives one worker (parallel.LightWorkers: a
// request's handful of vectors) is scored on the caller; a larger one
// fans out across every core, as a forest's vector may cost more than
// the pair that rule was set for.
func PredictAllCtx(ctx context.Context, m Matcher, x [][]float64) ([]int, error) {
	pctx, sp := obs.StartSpan(ctx, "ml.predict")
	defer sp.End()
	sp.SetItems(len(x))
	out := make([]int, len(x))
	workers := runtime.GOMAXPROCS(0)
	if parallel.LightWorkers(len(x)) == 1 {
		workers = 1
	}
	err := parallel.ForWorkersCtx(pctx, len(x), workers, func(i int) error {
		out[i] = m.Predict(x[i])
		return nil
	})
	if err != nil {
		sp.SetOutcome(obs.OutcomeAborted)
		return nil, fmt.Errorf("ml: predict: %w", err)
	}
	sp.SetOutcome(obs.OutcomeOK)
	return out, nil
}
