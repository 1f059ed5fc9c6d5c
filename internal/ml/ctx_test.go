package ml

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"emgo/internal/obs"
	"emgo/internal/parallel"
)

// forestDataset builds a small separable dataset.
func forestDataset(t *testing.T) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []int
	for i := 0; i < 40; i++ {
		v := rng.Float64()
		if i%2 == 0 {
			x = append(x, []float64{v * 0.4, rng.Float64()})
			y = append(y, 0)
		} else {
			x = append(x, []float64{0.6 + v*0.4, rng.Float64()})
			y = append(y, 1)
		}
	}
	ds, err := NewDataset([]string{"a", "b"}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestForestFitCtxCancelled(t *testing.T) {
	ds := forestDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &RandomForest{Trees: 50, Seed: 1}
	err := f.FitCtx(ctx, ds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
}

// TestFailedFitLeavesForestUnfitted: a fit that fails — its context
// cancelled — leaves even a fitted forest unfitted, and the next fit is
// bit-identical to an untouched one. A tree's panic becoming an error
// with its index is parallel's TestForCtxWorkerPanicBecomesError.
func TestFailedFitLeavesForestUnfitted(t *testing.T) {
	ds := forestDataset(t)
	f := &RandomForest{Trees: 5, Seed: 1}
	if err := f.Fit(ds); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.FitCtx(cancelled, ds); !errors.Is(err, context.Canceled) {
		t.Fatalf("fit under a cancelled context: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("predicting with a failed fit should panic as before Fit")
			}
		}()
		f.Predict(ds.X[0])
	}()

	if err := f.FitCtx(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	ref := &RandomForest{Trees: 5, Seed: 1}
	if err := ref.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for i, row := range ds.X {
		if f.Predict(row) != ref.Predict(row) {
			t.Fatalf("refit diverges at row %d", i)
		}
	}
}

func TestPredictAllCtx(t *testing.T) {
	ds := forestDataset(t)
	m := &DecisionTree{}
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	got, err := PredictAllCtx(context.Background(), m, ds.X)
	if err != nil {
		t.Fatal(err)
	}
	want := PredictAll(m, ds.X)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %d vs %d", i, got[i], want[i])
		}
	}

	// An unfitted forest panics per row; the ctx form converts that to an
	// error with the failing row.
	unfitted := &RandomForest{}
	_, err = PredictAllCtx(context.Background(), unfitted, ds.X[:3])
	if err == nil {
		t.Fatal("unfitted matcher must error, not crash")
	}
	if _, ok := parallel.FailingIndex(err); !ok {
		t.Fatalf("error should carry a row index: %v", err)
	}
}

// poisonRow is a matcher that panics on one vector, by identity.
type poisonRow struct {
	Matcher
	poison []float64
}

func (m poisonRow) Predict(x []float64) int {
	if &x[0] == &m.poison[0] {
		panic("poisoned vector")
	}
	return m.Matcher.Predict(x)
}

// TestPredictAllCtxNamesPanickingRow: a matcher panicking on one row,
// wherever it falls, is an error naming that row.
func TestPredictAllCtxNamesPanickingRow(t *testing.T) {
	ds := forestDataset(t)
	m := &DecisionTree{}
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for _, poison := range []int{0, 7, len(ds.X) - 1} {
		_, err := PredictAllCtx(context.Background(), poisonRow{m, ds.X[poison]}, ds.X)
		if idx, ok := parallel.FailingIndex(err); !ok || idx != poison {
			t.Fatalf("poison row %d: err: %v", poison, err)
		}
	}
}

func TestLeaveOneOutDebugCtxCancelled(t *testing.T) {
	ds := forestDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := LeaveOneOutDebugCtx(ctx, Factory{Name: "dt", New: func() Matcher { return &DecisionTree{} }}, ds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
}

// TestSelectMatcherCtxCancelled: a selection under a cancelled context
// returns its error without fitting a single fold.
func TestSelectMatcherCtxCancelled(t *testing.T) {
	var fits atomic.Int64
	factories := DefaultFactories(1)
	for i := range factories {
		newMatcher := factories[i].New
		factories[i].New = func() Matcher { fits.Add(1); return newMatcher() }
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectMatcherCtx(ctx, factories, forestDataset(t), 5, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
	if n := fits.Load(); n != 0 {
		t.Fatalf("%d fold fits started under a cancelled context", n)
	}
	// The counting factories do fit when the context is live.
	if _, err := SelectMatcherCtx(context.Background(), factories, forestDataset(t), 5, 7); err != nil || fits.Load() != int64(5*len(factories)) {
		t.Fatalf("live selection: %d fits, want %d (%v)", fits.Load(), 5*len(factories), err)
	}
}

// TestSelectionAndLabelDebuggingAreSpans: a matcher selection is one
// ml.cv span and a leave-one-out pass one ml.loocv span, each counting
// the predictions it scored — every example once per factory, and once —
// so a study's report counts the work of its two costliest loops; a
// pass its context stopped is aborted.
func TestSelectionAndLabelDebuggingAreSpans(t *testing.T) {
	ds := forestDataset(t)
	factories := DefaultFactories(1)
	dt := Factory{Name: "dt", New: func() Matcher { return &DecisionTree{} }}
	ctx, root := obs.NewTrace(context.Background(), "study")
	if _, err := SelectMatcherCtx(ctx, factories, ds, 5, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := LeaveOneOutDebugCtx(ctx, dt, ds); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := LeaveOneOutDebugCtx(cancelled, dt, ds); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass: %v", err)
	}
	root.End()
	spans := root.Snapshot().Children
	want := []struct {
		name    string
		items   int64
		outcome string
	}{
		{"ml.cv", int64(len(factories) * ds.Len()), obs.OutcomeOK},
		{"ml.loocv", int64(ds.Len()), obs.OutcomeOK},
		{"ml.loocv", int64(ds.Len()), obs.OutcomeAborted},
	}
	if len(spans) != len(want) {
		t.Fatalf("%d spans under the root, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		if s := spans[i]; s.Name != w.name || s.Items != w.items || s.Outcome != w.outcome {
			t.Errorf("span %d: %s items %d %s, want %s items %d %s", i, s.Name, s.Items, s.Outcome, w.name, w.items, w.outcome)
		}
	}
}
