package workflow

import (
	"context"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"emgo/internal/rules"
)

// The run record's formats, pinned through what a reader sees — the
// rendered log and the report's JSON — not through the types behind them.

// figure9 is the hardened fixture in the Figure 9 shape: a second,
// discovered sure rule beside M1, blocking, the matcher, no veto.
func figure9(t *testing.T) (*Workflow, *tableTablePair) {
	t.Helper()
	w, tp := hardenedFixture(t)
	m1, err := rules.NewEqual("M1", tp.l, "Num", nil, tp.r, "Num", nil, rules.Match)
	if err != nil {
		t.Fatal(err)
	}
	swampOnly := func(title string) string {
		if strings.HasPrefix(title, "swamp") {
			return title
		}
		return ""
	}
	m2, err := rules.NewEqual("M2", tp.l, "Title", swampOnly, tp.r, "Title", swampOnly, rules.Match)
	if err != nil {
		t.Fatal(err)
	}
	w.Name, w.SureRules, w.NegativeRules = "figure9", rules.NewEngine(m1, m2), nil
	return w, tp
}

func TestGoldenFigure9Log(t *testing.T) {
	w, tp := figure9(t)
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := "" +
		"sure_matches                  2  positive rules over input tables\n" +
		"blocked                       3  union of blockers\n" +
		"candidates                    1  blocked minus sure matches\n" +
		"learned                       1  matcher predictions on candidates\n" +
		"vetoed                        0  negative rules flipped\n" +
		"final                         3  sure matches plus surviving predictions\n"
	if got := res.Log.String(); got != want {
		t.Fatalf("Figure 9 log:\n%s\nwant:\n%s", got, want)
	}
}

// TestGoldenRunReport pins the report's top-level keys and the shape of
// each provenance entry as written: an ok stage carries no outcome key.
func TestGoldenRunReport(t *testing.T) {
	w, tp := figure9(t)
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Report.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		// "metrics" rides along only when some earlier test turned the
		// registry on.
		if k != "metrics" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "finished_at name outcome provenance started_at trace"; got != want {
		t.Errorf("report keys = %q, want %q", got, want)
	}
	if got := string(doc["outcome"]); got != `"ok"` {
		t.Errorf("report outcome = %s, want \"ok\"", got)
	}
	var prov []map[string]json.RawMessage
	if err := json.Unmarshal(doc["provenance"], &prov); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, fields := range prov {
		var names []string
		for k := range fields {
			names = append(names, k)
		}
		sort.Strings(names)
		got = append(got, string(fields["step"])+"{"+strings.Join(names, ",")+"}")
	}
	want := `"sure_matches"{count,detail,step} "blocked"{count,detail,step} "candidates"{count,detail,step} ` +
		`"learned"{count,detail,step} "vetoed"{count,detail,step} "final"{count,detail,step}`
	if strings.Join(got, " ") != want {
		t.Errorf("provenance:\n got %v\nwant %s", got, want)
	}
}
