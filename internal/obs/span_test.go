package obs

import (
	"context"
	"encoding/json"
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
	sp.Event("ckpt", "x")
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
	vec.Event("quarantine", "pair (1,2)")
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
	if v.Outcome != "degraded" || len(v.Events) != 1 || v.Events[0].Kind != "quarantine" {
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
			sp.Event("tick", "")
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
