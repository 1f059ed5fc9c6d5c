package ml

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"emgo/internal/fault"
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

func TestForestFitCtxInjectedPanicSurfacesAsError(t *testing.T) {
	defer fault.Reset()
	ds := forestDataset(t)
	fault.Enable("ml.forest.fit", fault.Plan{Mode: fault.ModePanic, Indices: []int{3}})

	f := &RandomForest{Trees: 10, Seed: 42}
	err := f.FitCtx(context.Background(), ds)
	if err == nil {
		t.Fatal("injected worker panic must surface as an error")
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) || pe.Index != 3 {
		t.Fatalf("err: %v", err)
	}
	if !strings.Contains(err.Error(), "index 3") {
		t.Fatalf("error should name the failing tree: %v", err)
	}

	// After the fault is cleared, the same forest trains fine and is
	// bit-identical to an untouched sequential fit.
	fault.Reset()
	if err := f.FitCtx(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	ref := &RandomForest{Trees: 10, Seed: 42}
	if err := ref.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for i, row := range ds.X {
		if f.Predict(row) != ref.Predict(row) {
			t.Fatalf("recovered fit diverges at row %d", i)
		}
	}
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

func TestFailedFitLeavesForestUnfitted(t *testing.T) {
	defer fault.Reset()
	ds := forestDataset(t)
	fault.Enable("ml.forest.fit", fault.Plan{Indices: []int{0}})
	f := &RandomForest{Trees: 5, Seed: 1}
	if err := f.FitCtx(context.Background(), ds); err == nil {
		t.Fatal("expected injected error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("predicting with a failed fit should panic as before Fit")
		}
	}()
	f.Predict(ds.X[0])
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

func TestPredictAllCtxFaultSite(t *testing.T) {
	defer fault.Reset()
	ds := forestDataset(t)
	m := &DecisionTree{}
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	fault.Enable("ml.predict", fault.Plan{Indices: []int{7}})
	_, err := PredictAllCtx(context.Background(), m, ds.X)
	if idx, ok := parallel.FailingIndex(err); !ok || idx != 7 {
		t.Fatalf("err: %v", err)
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
	obs.Enable()
	defer obs.Disable()
	folds := obs.C("ml.cv.folds")
	before := folds.Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectMatcherCtx(ctx, DefaultFactories(1), forestDataset(t), 5, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
	if n := folds.Value() - before; n != 0 {
		t.Fatalf("ml.cv.folds advanced by %d under a cancelled context", n)
	}
}
