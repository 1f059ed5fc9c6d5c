package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
	root.SetOutcome("degraded")
	root.End()

	r := NewRegistry()
	r.Counter("block.pairs_blocked").Add(120)
	r.Histogram("workflow.stage_ms", []float64{1, 10}).Observe(4)
	snap := r.Snapshot()

	rep := &Report{
		Name:       "emmatch",
		StartedAt:  time.Now().Add(-time.Second),
		FinishedAt: time.Now(),
		Outcome:    "degraded",
		Trace:      root.Snapshot(),
		Metrics:    &snap,
		Provenance: []ProvEntry{
			{Step: "blocked", Detail: "union of blockers", Count: 120},
			{Step: "learned", Detail: "matcher predictions on candidates (restored from checkpoint)", Count: 119, Outcome: "resumed"},
		},
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
	if got.Trace == nil || len(got.Trace.Children) != 1 || got.Trace.Children[0].Items != 120 {
		t.Fatalf("round trip trace: %+v", got.Trace)
	}
	if got.Metrics == nil || got.Metrics.Counters["block.pairs_blocked"] != 120 {
		t.Fatalf("round trip metrics: %+v", got.Metrics)
	}
	if len(got.Provenance) != 2 || got.Provenance[1].Outcome != "resumed" {
		t.Fatalf("round trip provenance: %+v", got.Provenance)
	}
}

func TestReportWriteFile(t *testing.T) {
	rep := &Report{Name: "x", Outcome: "ok"}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "x" || got.Outcome != "ok" {
		t.Fatalf("got %+v", got)
	}
}

func TestParseReportRejectsGarbage(t *testing.T) {
	if _, err := ParseReport([]byte("{not json")); err == nil {
		t.Fatal("expected parse error")
	}
}

// TestReportWellFormedWithOutOfOrderStageEnds drives many concurrent
// stage spans that start and end out of order (later stages finishing
// before earlier ones) while metrics are written from the same
// goroutines, then asserts the resulting report is well-formed JSON that
// round-trips with every span accounted for. Run under -race in tier 2,
// this is the guard that Result.Report stays coherent when parallel
// stage workers interleave arbitrarily.
func TestReportWellFormedWithOutOfOrderStageEnds(t *testing.T) {
	Disable()
	reg := Enable()
	defer Disable()

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
				reg.Counter("race.ops").Inc()
				reg.Histogram("race.ms", []float64{1, 10, 100}).Observe(float64(i))
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

	snap := reg.Snapshot()
	rep := &Report{
		Name: "race", StartedAt: time.Now(), FinishedAt: time.Now(),
		Outcome: "ok", Trace: root.Snapshot(), Metrics: &snap,
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
	for _, c := range got.Trace.Children {
		if c.Name == "" || c.Outcome != "ok" || len(c.Children) != 1 {
			t.Fatalf("malformed stage span: %+v", c)
		}
	}
	if got.Metrics.Counters["race.ops"] != workers*spansPerWorker {
		t.Fatalf("counter = %d, want %d", got.Metrics.Counters["race.ops"], workers*spansPerWorker)
	}
}
