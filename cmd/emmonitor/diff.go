package main

import (
	"fmt"
	"io"
	"maps"
	"math"
	"sort"

	"emgo/internal/obs"
)

// DeltaRow is one changed value in a report diff.
type DeltaRow struct {
	// Name identifies the value ("stage.blocked", "block.join").
	Name string `json:"name"`
	// A and B are the values in the two reports (NaN renders as "-"
	// when the value is absent on one side).
	A float64 `json:"a"`
	B float64 `json:"b"`
}

// Delta returns B - A (0 when either side is absent).
func (r DeltaRow) Delta() float64 {
	if math.IsNaN(r.A) || math.IsNaN(r.B) {
		return 0
	}
	return r.B - r.A
}

// Diff is the comparison of two run reports.
type Diff struct {
	// NameA/NameB identify the two runs.
	NameA string `json:"name_a"`
	NameB string `json:"name_b"`
	// OutcomeA/OutcomeB are the run outcomes.
	OutcomeA string `json:"outcome_a"`
	OutcomeB string `json:"outcome_b"`
	// Stages are per-stage wall-time changes (from the span trees).
	Stages []DeltaRow `json:"stages,omitempty"`
	// Items are changes in each span name's summed items (from the span
	// trees): the work a layer did, such as block.join's pairs.
	Items []DeltaRow `json:"items,omitempty"`
}

// stagesOf is a report's span tree as name → duration, the root — the
// first occurrence of its own name — included.
func stagesOf(root *obs.SpanData) map[string]float64 {
	out := map[string]float64{}
	if root != nil {
		maps.Copy(out, root.StageDurations())
		out[root.Name] = root.DurationMS
	}
	return out
}

// itemsOf is a report's span tree as name → the items of every span of
// that name summed, root included; a name whose spans carry no items is
// left out.
func itemsOf(root *obs.SpanData) map[string]float64 {
	out := map[string]float64{}
	var walk func(*obs.SpanData)
	walk = func(n *obs.SpanData) {
		if n.Items != 0 {
			out[n.Name] += float64(n.Items)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if root != nil {
		walk(root)
	}
	return out
}

// deltas builds sorted DeltaRows from two name → value maps, keeping
// rows where the value changed or exists on only one side.
func deltas(a, b map[string]float64) []DeltaRow {
	names := make(map[string]struct{}, len(a)+len(b))
	for k := range a {
		names[k] = struct{}{}
	}
	for k := range b {
		names[k] = struct{}{}
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []DeltaRow
	for _, k := range keys {
		av, aok := a[k]
		bv, bok := b[k]
		if !aok {
			av = math.NaN()
		}
		if !bok {
			bv = math.NaN()
		}
		if aok && bok && av == bv {
			continue
		}
		out = append(out, DeltaRow{Name: k, A: av, B: bv})
	}
	return out
}

// DiffReports compares two run reports: stage wall times and span items.
// Their quality is emmonitor check's to compare.
func DiffReports(a, b *obs.Report) *Diff {
	return &Diff{
		NameA: a.Name, NameB: b.Name, OutcomeA: a.Outcome, OutcomeB: b.Outcome,
		Stages: deltas(stagesOf(a.Trace), stagesOf(b.Trace)),
		Items:  deltas(itemsOf(a.Trace), itemsOf(b.Trace)),
	}
}

// renderVal renders one side of a delta row ("-" for absent).
func renderVal(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%g", v)
}

// Render writes the diff as an aligned human-readable table.
func (d *Diff) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "run A: %s (outcome %s)\nrun B: %s (outcome %s)\n",
		d.NameA, d.OutcomeA, d.NameB, d.OutcomeB); err != nil {
		return err
	}
	section := func(title string, rows []DeltaRow) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(w, "\n%s:\n", title) //nolint:errcheck
		for _, r := range rows {
			fmt.Fprintf(w, "  %-44s %12s -> %-12s (%+g)\n", //nolint:errcheck
				r.Name, renderVal(r.A), renderVal(r.B), r.Delta())
		}
	}
	section("stage wall time (ms)", d.Stages)
	section("span items", d.Items)
	if len(d.Stages)+len(d.Items) == 0 {
		if _, err := fmt.Fprintln(w, "no differences"); err != nil {
			return err
		}
	}
	return nil
}
