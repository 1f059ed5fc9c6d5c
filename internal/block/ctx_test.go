package block

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// bigPair builds two n-row single-column tables of distinct numeric-ish
// strings for cancellation tests.
func bigPair(t *testing.T, n int) (*table.Table, *table.Table) {
	t.Helper()
	schema := func() *table.Schema {
		return table.MustSchema(table.Field{Name: "Key", Kind: table.String})
	}
	l := table.New("L", schema())
	r := table.New("R", schema())
	for i := 0; i < n; i++ {
		l.MustAppend(table.Row{table.S(fmt.Sprintf("key %d alpha beta", i))})
		r.MustAppend(table.Row{table.S(fmt.Sprintf("key %d alpha beta", i))})
	}
	return l, r
}

func TestAttrEquivCancelledMidJoin(t *testing.T) {
	l, r := bigPair(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	b := AttrEquiv{
		LeftCol: "Key", RightCol: "Key",
		// The transform runs once per probed left row; cancelling from
		// inside it makes the abort point deterministic.
		LeftTransform: func(s string) string {
			calls++
			if calls == 10 {
				cancel()
			}
			return s
		},
	}
	_, err := b.Block(ctx, l, r)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
	if calls >= l.Len() {
		t.Fatalf("join ran to completion: %d probe calls", calls)
	}
}

// countingTokenizer wraps Word and cancels a context after `after` calls.
type countingTokenizer struct {
	calls  *int
	after  int
	cancel context.CancelFunc
}

func (ct countingTokenizer) Tokens(s string) []string {
	*ct.calls++
	if *ct.calls == ct.after {
		ct.cancel()
	}
	return tokenize.Word{}.Tokens(s)
}

func (ct countingTokenizer) Name() string { return "counting" }

func TestJaccardJoinCancelledBeforeCompletion(t *testing.T) {
	l, r := bigPair(t, 1000)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	b := JaccardJoin{
		LeftCol: "Key", RightCol: "Key",
		Tokenizer: countingTokenizer{calls: &calls, after: 10, cancel: cancel},
		Threshold: 0.8,
	}
	_, err := b.Block(ctx, l, r)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
	// A full join tokenizes all 2000 rows; cancellation after 10 calls
	// must abort within one stride.
	if calls >= 2000 {
		t.Fatalf("join ran to completion: %d tokenizations", calls)
	}
	// The join is synchronous: nothing may linger.
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > base+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base+2 {
		t.Fatalf("goroutines leaked: %d -> %d", base, n)
	}
}

func TestOverlapBlockersCancelled(t *testing.T) {
	l, r := bigPair(t, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bound, err := Bind(context.Background(), r,
		Overlap{LeftCol: "Key", RightCol: "Key", Tokenizer: tokenize.Word{}, Threshold: 2},
		AttrEquiv{LeftCol: "Key", RightCol: "Key"})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Blocker{
		AttrEquiv{LeftCol: "Key", RightCol: "Key"},
		Overlap{LeftCol: "Key", RightCol: "Key", Tokenizer: tokenize.Word{}, Threshold: 2},
		OverlapCoefficient{LeftCol: "Key", RightCol: "Key", Tokenizer: tokenize.Word{}, Threshold: 0.5},
		JaccardJoin{LeftCol: "Key", RightCol: "Key", Tokenizer: tokenize.Word{}, Threshold: 0.5},
		SortedNeighborhood{LeftCol: "Key", RightCol: "Key", Window: 3},
		Func{Label: "all", Keep: func(left, right table.Row) bool { return true }},
		bound[0],
		bound[1],
	} {
		if _, err := b.Block(ctx, l, r); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v", b.Name(), err)
		}
	}
}

// failingBlocker is a blocker whose every run fails.
type failingBlocker struct{}

func (failingBlocker) Block(_ context.Context, _, _ *table.Table) (*CandidateSet, error) {
	return nil, errors.New("blocker down")
}
func (failingBlocker) Name() string { return "failing" }

// TestUnionBlockCtxFaultInjection: a blocker that fails aborts the union,
// and the error names it; the union without it runs.
func TestUnionBlockCtxFaultInjection(t *testing.T) {
	l, r := bigPair(t, 10)
	b := AttrEquiv{LeftCol: "Key", RightCol: "Key"}

	_, err := UnionBlockCtx(context.Background(), l, r, b, failingBlocker{})
	if err == nil || !strings.Contains(err.Error(), "failing") || !strings.Contains(err.Error(), "blocker down") {
		t.Fatalf("failing blocker: %v", err)
	}
	cand, err := UnionBlockCtx(context.Background(), l, r, b)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Len() != 10 {
		t.Fatalf("candidates = %d", cand.Len())
	}
}

// TestFuncCancelled: Func, which calls its predicate over the whole
// Cartesian product, stops once ctx is done — before it starts, or within
// a stride of left rows mid-run.
func TestFuncCancelled(t *testing.T) {
	l, r := bigPair(t, 5)
	b := Func{Label: "all", Keep: func(left, right table.Row) bool { return true }}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Block(ctx, l, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
	cand, err := b.Block(context.Background(), l, r)
	if err != nil || cand.Len() != 25 {
		t.Fatalf("run: %v, %d pairs", err, cand.Len())
	}

	l, r = bigPair(t, 300)
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	visited := map[string]bool{}
	b = Func{Label: "cancels", Keep: func(left, right table.Row) bool {
		cancel()
		visited[left[0].String()] = true
		return true
	}}
	if _, err := b.Block(ctx, l, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
	if len(visited) >= l.Len() {
		t.Fatalf("join ran to completion: %d of %d left rows visited", len(visited), l.Len())
	}
}
