package core

import (
	"context"
	"errors"
	"testing"

	"emgo/internal/block"
	"emgo/internal/ml"
)

// TestFlagLabelsHonoursContext: label debugging under a cancelled
// context dispatches no retrain and says why.
func TestFlagLabelsHonoursContext(t *testing.T) {
	x := [][]float64{{0}, {0.2}, {0.8}, {1}}
	ds, err := ml.NewDataset([]string{"sim"}, x, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []block.Pair{{A: 0, B: 0}, {A: 1, B: 1}, {A: 2, B: 2}, {A: 3, B: 3}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FlagLabels(ctx, ds, pairs, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("FlagLabels on a cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := FlagLabels(context.Background(), ds, pairs, 1); err != nil {
		t.Fatal(err)
	}
}
