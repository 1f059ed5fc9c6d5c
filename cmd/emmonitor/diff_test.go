package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"emgo/internal/obs"
)

func sampleReport(name string) *obs.Report {
	return &obs.Report{
		Name: name, Outcome: "ok",
		StartedAt: time.Unix(100, 0), FinishedAt: time.Unix(101, 0),
	}
}

func TestDiffReports(t *testing.T) {
	a := sampleReport("run-a")
	a.Trace = &obs.SpanData{Name: "workflow", DurationMS: 100, Children: []*obs.SpanData{
		{Name: "stage.blocked", DurationMS: 40},
		{Name: "stage.learned", DurationMS: 60, Children: []*obs.SpanData{{Name: "ml.predict", Items: 100}}},
		{Name: "only_a", Items: 1},
	}}

	b := sampleReport("run-b")
	b.Trace = &obs.SpanData{Name: "workflow", DurationMS: 130, Children: []*obs.SpanData{
		{Name: "stage.blocked", DurationMS: 40}, // unchanged: not in diff
		{Name: "stage.learned", DurationMS: 90, Children: []*obs.SpanData{{Name: "ml.predict", Items: 150}}},
		{Name: "only_b", Items: 2},
	}}

	d := DiffReports(a, b)
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
	if r := find(d.Items, "ml.predict"); r == nil || r.Delta() != 50 {
		t.Fatalf("items delta: %+v", r)
	}
	if r := find(d.Items, "only_a"); r == nil || !math.IsNaN(r.B) || r.Delta() != 0 {
		t.Fatalf("one-sided items: %+v", r)
	}

	var sb strings.Builder
	if err := d.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"run-a", "run-b", "stage.learned", "ml.predict", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDiffIdenticalReportsRendersNoDifferences(t *testing.T) {
	a := sampleReport("same")
	a.Trace = &obs.SpanData{Name: "workflow", Children: []*obs.SpanData{{Name: "n", Items: 1}}}
	d := DiffReports(a, a)
	var sb strings.Builder
	if err := d.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no differences") {
		t.Fatalf("identical reports rendered:\n%s", sb.String())
	}
}

// TestDiffSumsSpanItemsByName: a report's items row for a span name is
// the sum over every span of that name wherever it sits in the tree, so
// the three block.join spans of a three-blocker run read as one total.
func TestDiffSumsSpanItemsByName(t *testing.T) {
	joins := func(items ...int64) *obs.Report {
		blocked := &obs.SpanData{Name: "stage.blocked", Items: 99}
		for _, n := range items {
			blocked.Children = append(blocked.Children, &obs.SpanData{Name: "block.join", Items: n})
		}
		rep := sampleReport("r")
		rep.Trace = &obs.SpanData{Name: "emmatch", Children: []*obs.SpanData{blocked}}
		return rep
	}
	d := DiffReports(joins(10, 20, 5), joins(10, 26, 12))
	if len(d.Items) != 1 || d.Items[0].Name != "block.join" || d.Items[0].A != 35 || d.Items[0].B != 48 || d.Items[0].Delta() != 13 {
		t.Fatalf("items rows %+v, want one block.join row 35 -> 48", d.Items)
	}
	if d := DiffReports(joins(10, 20, 5), joins(20, 5, 10)); len(d.Items) != 0 {
		t.Fatalf("the same total spread differently across blockers: items rows %+v, want none", d.Items)
	}
}
