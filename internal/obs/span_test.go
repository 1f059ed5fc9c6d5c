package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestStartSpanWithoutTraceIsNoOp(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("no trace in ctx: span must be nil")
	}
	if ctx2 != ctx {
		t.Fatal("no trace in ctx: context must pass through")
	}
	// All methods must be safe on the nil span.
	sp.SetItems(3)
	sp.SetOutcome("ok")
	sp.Annotate("k", "v")
	sp.End()
	if sp.Snapshot() != nil {
		t.Fatal("nil span snapshot must be nil")
	}
}

func TestSpanTree(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "run")
	bctx, blockSpan := StartSpan(ctx, "block.join")
	blockSpan.Annotate("blocker", "attr_equiv")
	blockSpan.SetItems(42)
	_, inner := StartSpan(bctx, "block.index")
	inner.End()
	blockSpan.SetOutcome("ok")
	blockSpan.End()
	_, vec := StartSpan(ctx, "feature.vectorize")
	vec.SetOutcome("degraded")
	vec.End()
	root.SetOutcome("ok")
	root.End()

	d := root.Snapshot()
	if d.Name != "run" || len(d.Children) != 2 {
		t.Fatalf("root: %+v", d)
	}
	b := d.Children[0]
	if b.Name != "block.join" || b.Items != 42 || b.Attrs["blocker"] != "attr_equiv" {
		t.Fatalf("block span: %+v", b)
	}
	if len(b.Children) != 1 || b.Children[0].Name != "block.index" {
		t.Fatalf("nested span missing: %+v", b)
	}
	v := d.Children[1]
	if v.Outcome != "degraded" || v.Name != "feature.vectorize" {
		t.Fatalf("vectorize span: %+v", v)
	}
	if d.DurationMS < 0 {
		t.Fatalf("duration %v", d.DurationMS)
	}

	// The tree must export as JSON.
	if _, err := json.Marshal(d); err != nil {
		t.Fatal(err)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "run")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := StartSpan(ctx, "worker")
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Snapshot().Children); got != 16 {
		t.Fatalf("children = %d, want 16", got)
	}
}

func TestSnapshotOfUnfinishedSpan(t *testing.T) {
	_, root := NewTrace(context.Background(), "run")
	d := root.Snapshot() // no End yet
	if d == nil || d.DurationMS < 0 {
		t.Fatalf("snapshot of live span: %+v", d)
	}
}

// TestSpansComeFromTheTraceSlab: a request-sized tree — a root and a
// dozen spans under it, each with its context, a few annotated — is one
// allocation, the trace's; a tree that outgrows the first slab keeps
// every span where it was handed out, in start order.
func TestSpansComeFromTheTraceSlab(t *testing.T) {
	if !raceEnabled {
		allocs := testing.AllocsPerRun(100, func() {
			ctx, root := NewTrace(context.Background(), "serve.http")
			for i := 1; i < traceSpans; i++ {
				var sp *Span
				ctx, sp = StartSpan(ctx, "stage")
				sp.SetItems(i)
				if i <= traceAttrs {
					sp.Annotate("blocker", "b")
				}
				sp.End()
			}
			root.End()
		})
		if allocs != 1 {
			t.Fatalf("a %d-span trace allocates %.0f times, want 1", traceSpans, allocs)
		}
	}

	ctx, root := NewTrace(context.Background(), "run")
	var spans []*Span
	for i := 0; i < 5*traceSpans; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("s%02d", i))
		sp.SetItems(i)
		spans = append(spans, sp)
	}
	for _, sp := range spans {
		sp.End()
	}
	root.End()
	d := root.Snapshot()
	if len(d.Children) != len(spans) {
		t.Fatalf("children = %d, want %d", len(d.Children), len(spans))
	}
	for i, c := range d.Children {
		if c.Name != fmt.Sprintf("s%02d", i) || c.Items != int64(i) {
			t.Fatalf("child %d is %s with %d items", i, c.Name, c.Items)
		}
	}
}

// TestSpanContextDelegates: a span's context answers for the span and
// asks its parent for everything else — values, deadline, cancellation.
func TestSpanContextDelegates(t *testing.T) {
	type key struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
	ctx, root := NewTrace(parent, "run")
	cctx, child := StartSpan(ctx, "child")
	if SpanFromContext(ctx) != root || SpanFromContext(cctx) != child {
		t.Fatal("a span's context does not carry the span")
	}
	if cctx.Value(key{}) != "v" {
		t.Fatal("a span's context lost its parent's value")
	}
	sub, stop := context.WithCancel(cctx)
	defer stop()
	cancel()
	<-sub.Done()
	if cctx.Err() != context.Canceled {
		t.Fatalf("err = %v, want canceled", cctx.Err())
	}
}

// TestAnnotateKeepsTheLastValue: a key annotated twice is one attribute.
func TestAnnotateKeepsTheLastValue(t *testing.T) {
	_, root := NewTrace(context.Background(), "run")
	root.Annotate("blocker", "a")
	root.Annotate("other", "x")
	root.Annotate("blocker", "b")
	if got := root.Snapshot().Attrs; len(got) != 2 || got["blocker"] != "b" || got["other"] != "x" {
		t.Fatalf("attrs = %v", got)
	}
}

// TestTraceOpenEmptiesTheTree: a Trace reopened for the next tree hands
// out its spans again from the start, and the new tree holds nothing of
// the last one's — no child, item count, outcome, pair or end.
func TestTraceOpenEmptiesTheTree(t *testing.T) {
	var tr Trace
	for round := 0; round < 3; round++ {
		ctx, root := tr.Open(context.Background(), "serve.http")
		if round > 0 {
			if d := root.Snapshot(); d.Children != nil || d.Items != 0 || d.Outcome != "" || d.Attrs != nil {
				t.Fatalf("round %d: reopened root keeps the last tree: %+v", round, d)
			}
		}
		// More spans than the first slab holds, so the tree grows past it.
		for i := 0; i < 2*traceSpans; i++ {
			_, sp := StartSpan(ctx, "stage")
			sp.SetItems(i)
			sp.SetOutcome(OutcomeOK)
			sp.Annotate("k", "v")
			sp.End()
		}
		root.SetItems(7)
		root.Annotate("route", "/v1/match")
		root.End()
		if got := len(root.Snapshot().Children); got != 2*traceSpans {
			t.Fatalf("round %d: %d children, want %d", round, got, 2*traceSpans)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are the race runtime's")
	}
	if got := testing.AllocsPerRun(100, func() {
		_, root := tr.Open(context.Background(), "serve.http")
		root.End()
	}); got > 0 {
		t.Fatalf("reopening a trace allocates %.0f times, want none", got)
	}
}
