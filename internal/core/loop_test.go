package core

import (
	"context"
	"errors"
	"testing"

	"emgo/internal/block"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/tokenize"
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

// labelledProject blocks richTables on shared title words, labels the
// first n candidates by the fixture's truth (every one when n < 0) and
// generates the title features.
func labelledProject(t *testing.T, n int) *Project {
	t.Helper()
	l, r, truth := richTables(t)
	p, _ := NewProject("ctx", l, r, 3)
	p.AddBlocker(block.Overlap{
		LeftCol: "Title", RightCol: "Title",
		Tokenizer: tokenize.Word{}, Threshold: 1, Normalize: true,
	})
	cand, err := p.Block(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pairs := cand.Sorted()
	if n >= 0 {
		pairs = pairs[:n]
	}
	for _, pr := range pairs {
		lab := label.No
		if truth[pr] {
			lab = label.Yes
		}
		if err := p.SetLabel(pr, lab); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.GenerateFeatures(map[string]string{"Title": "Title"}, []string{"Title"}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProjectStepsHonourContext: selection, label debugging and a match
// under a cancelled context fail with its error, and selection installs
// nothing.
func TestProjectStepsHonourContext(t *testing.T) {
	p := labelledProject(t, -1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.SelectMatcher(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectMatcher on a cancelled context: err = %v, want context.Canceled", err)
	}
	if p.wf.Matcher != nil {
		t.Fatal("a cancelled SelectMatcher installed a matcher")
	}
	if _, err := p.DebugLabels(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("DebugLabels on a cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := p.Match(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Match on a cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestDebugLabelsBelowTwoRows: one training row leaves nothing to leave
// one out of, so label debugging flags nothing and does not fail; from
// two rows it runs.
func TestDebugLabelsBelowTwoRows(t *testing.T) {
	for _, n := range []int{1, 2} {
		flagged, err := labelledProject(t, n).DebugLabels(context.Background())
		if err != nil {
			t.Fatalf("%d row(s): %v", n, err)
		}
		if n == 1 && len(flagged) != 0 {
			t.Fatalf("one row flagged %v", flagged)
		}
	}
}
