package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"emgo/internal/obs"
)

func sampleReport(name string, counters map[string]int64) *obs.Report {
	snap := &obs.MetricsSnapshot{Counters: counters}
	return &obs.Report{
		Name: name, Outcome: "ok",
		StartedAt: time.Unix(100, 0), FinishedAt: time.Unix(101, 0),
		Metrics: snap,
	}
}

func TestDiffReports(t *testing.T) {
	a := sampleReport("run-a", map[string]int64{"ml.predictions": 100, "only_a": 1})
	a.Trace = &obs.SpanData{Name: "workflow", DurationMS: 100, Children: []*obs.SpanData{
		{Name: "stage.blocked", DurationMS: 40},
		{Name: "stage.learned", DurationMS: 60},
	}}
	a.Quality = &obs.QualityData{Verdict: "ok", Signals: []obs.QualitySignal{{Name: "psi.scores", Value: 0.01}}}

	b := sampleReport("run-b", map[string]int64{"ml.predictions": 150, "only_b": 2})
	b.Trace = &obs.SpanData{Name: "workflow", DurationMS: 130, Children: []*obs.SpanData{
		{Name: "stage.blocked", DurationMS: 40}, // unchanged: not in diff
		{Name: "stage.learned", DurationMS: 90},
	}}
	b.Quality = &obs.QualityData{Verdict: "warn", Signals: []obs.QualitySignal{{Name: "psi.scores", Value: 0.15}}}

	d := DiffReports(a, b)
	if d.VerdictA != "ok" || d.VerdictB != "warn" {
		t.Fatalf("verdicts: %q -> %q", d.VerdictA, d.VerdictB)
	}
	find := func(rows []DeltaRow, name string) *DeltaRow {
		for i := range rows {
			if rows[i].Name == name {
				return &rows[i]
			}
		}
		return nil
	}
	if r := find(d.Stages, "stage.learned"); r == nil || r.Delta() != 30 {
		t.Fatalf("stage.learned delta: %+v", r)
	}
	if r := find(d.Stages, "stage.blocked"); r != nil {
		t.Fatalf("unchanged stage should not appear: %+v", r)
	}
	if r := find(d.Counters, "ml.predictions"); r == nil || r.Delta() != 50 {
		t.Fatalf("counter delta: %+v", r)
	}
	if r := find(d.Counters, "only_a"); r == nil || !math.IsNaN(r.B) || r.Delta() != 0 {
		t.Fatalf("one-sided counter: %+v", r)
	}
	if r := find(d.Signals, "psi.scores"); r == nil || math.Abs(r.Delta()-0.14) > 1e-12 {
		t.Fatalf("signal delta: %+v", r)
	}

	var sb strings.Builder
	if err := d.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"run-a", "run-b", "quality warn", "stage.learned", "ml.predictions", "psi.scores", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDiffIdenticalReportsRendersNoDifferences(t *testing.T) {
	a := sampleReport("same", map[string]int64{"n": 1})
	d := DiffReports(a, a)
	var sb strings.Builder
	if err := d.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no differences") {
		t.Fatalf("identical reports rendered:\n%s", sb.String())
	}
}
