package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestReportRoundTrip(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "emmatch")
	_, sp := StartSpan(ctx, "stage.blocked")
	sp.SetItems(120)
	sp.SetOutcome("ok")
	sp.End()
	_, q := StartSpan(ctx, "stage.quality")
	q.SetItems(119)
	q.SetOutcome(OutcomeDegraded)
	q.End()
	root.SetOutcome("degraded")
	root.End()

	rep := &Report{
		Name:       "emmatch",
		StartedAt:  time.Now().Add(-time.Second),
		FinishedAt: time.Now(),
		Outcome:    "degraded",
		Trace:      root.Snapshot(),
	}
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != rep.Name || got.Outcome != "degraded" {
		t.Fatalf("round trip header: %+v", got)
	}
	if got.Trace == nil || len(got.Trace.Children) != 2 || got.Trace.Children[0].Items != 120 ||
		got.Trace.Children[1].Outcome != OutcomeDegraded {
		t.Fatalf("round trip trace: %+v", got.Trace)
	}
}

func TestParseReportRejectsGarbage(t *testing.T) {
	if _, err := ParseReport([]byte("{not json")); err == nil {
		t.Fatal("expected parse error")
	}
}

// TestReportWellFormedWithOutOfOrderStageEnds drives many concurrent
// stage spans that start and end out of order (later stages finishing
// before earlier ones) while the same goroutines annotate them, then
// asserts the resulting report is well-formed JSON that
// round-trips with every span accounted for. Run under -race in tier 2,
// this is the guard that Result.Report stays coherent when parallel
// stage workers interleave arbitrarily.
func TestReportWellFormedWithOutOfOrderStageEnds(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "race")
	const workers = 16
	const spansPerWorker = 25

	var wg sync.WaitGroup
	release := make(chan struct{})
	ends := make(chan *Span, workers*spansPerWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-release
			for i := 0; i < spansPerWorker; i++ {
				sctx, sp := StartSpan(ctx, fmt.Sprintf("stage.w%d_%d", w, i))
				sp.SetItems(i)
				sp.Annotate("worker", fmt.Sprint(w))
				_, child := StartSpan(sctx, "inner")
				child.End()
				sp.SetOutcome("ok")
				// Defer half the End calls so spans close out of start
				// order, across goroutines.
				if i%2 == 0 {
					sp.End()
				} else {
					ends <- sp
				}
			}
		}(w)
	}
	close(release)
	wg.Wait()
	close(ends)
	for sp := range ends {
		sp.End()
	}
	root.SetOutcome("ok")
	root.End()

	rep := &Report{
		Name: "race", StartedAt: time.Now(), FinishedAt: time.Now(),
		Outcome: "ok", Trace: root.Snapshot(),
	}
	data, err := rep.Marshal()
	if err != nil {
		t.Fatalf("report did not marshal: %v", err)
	}
	if !json.Valid(data) {
		t.Fatal("report is not valid JSON")
	}
	got, err := ParseReport(data)
	if err != nil {
		t.Fatalf("report did not round-trip: %v", err)
	}
	if len(got.Trace.Children) != workers*spansPerWorker {
		t.Fatalf("trace has %d stage spans, want %d", len(got.Trace.Children), workers*spansPerWorker)
	}
	var items int64
	for _, c := range got.Trace.Children {
		if c.Name == "" || c.Outcome != "ok" || len(c.Children) != 1 {
			t.Fatalf("malformed stage span: %+v", c)
		}
		items += c.Items
	}
	if want := int64(workers * spansPerWorker * (spansPerWorker - 1) / 2); items != want {
		t.Fatalf("stage spans carry %d items, want %d", items, want)
	}
}
