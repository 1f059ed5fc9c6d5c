package workflow

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"emgo/internal/block"
	"emgo/internal/drift"
	"emgo/internal/feature"
	"emgo/internal/obs"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// TestRunCtxDriftCaptureAndCleanCheck is the TestSmoke/monitor property at
// unit scope: a profiled run's report carries its whole profile, and two
// runs over the same tables, judged as emmonitor check judges them, score
// zero drift.
func TestRunCtxDriftCaptureAndCleanCheck(t *testing.T) {
	w, tp := hardenedFixture(t)

	capRes, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	captured, err := drift.ProfileFromQuality(capRes.Report.Quality)
	if err != nil {
		t.Fatalf("capture run produced no profile: %v", err)
	}
	if captured.LeftRows != tp.l.Len() || captured.RightRows != tp.r.Len() {
		t.Fatalf("profile rows %d/%d, want %d/%d",
			captured.LeftRows, captured.RightRows, tp.l.Len(), tp.r.Len())
	}
	if len(captured.Features) == 0 || len(captured.Columns) == 0 {
		t.Fatalf("profile missing distributions: %d features, %d columns",
			len(captured.Features), len(captured.Columns))
	}
	if got := outcomeSequence(capRes.Report); got[len(got)-1] != "quality:ok" {
		t.Fatalf("capture run stages = %v, want a last quality:ok", got)
	}

	base := reportProfile(t, capRes)
	got := *base
	got.CreatedAt = time.Time{}
	if !reflect.DeepEqual(got, profileOf(t, capRes)) {
		t.Fatal("the report's profile changed in the report's JSON round trip")
	}
	// The labeled accuracy estimate (Section 11) a baseline may carry.
	base.EstimatedPrecision = []float64{0.9, 0.95, 1.0}

	liveRes, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	asmt, err := drift.Evaluate(base, reportProfile(t, liveRes), drift.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if asmt.Verdict != drift.StatusOK {
		t.Fatalf("identical slice scored %q, want ok: %+v", asmt.Verdict, asmt.Signals)
	}
	for _, s := range asmt.Signals {
		if s.Value != 0 {
			t.Fatalf("identical slice scored signal %s = %g, want 0", s.Name, s.Value)
		}
	}
	if asmt.EstimatedPrecision == nil || asmt.EstimatedPrecision.Lo != 0.9 {
		t.Fatalf("drift-free check changed the accuracy estimate: %+v", asmt.EstimatedPrecision)
	}
}

// TestRunCtxDriftCheckDegradedQuality perturbs the baseline so the check
// breaches: the profiled run still completes with every stage ok, since a
// run records its quality and emmonitor check's Evaluate judges it.
func TestRunCtxDriftCheckDegradedQuality(t *testing.T) {
	w, tp := hardenedFixture(t)

	capRes, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	base := reportProfile(t, capRes)
	// Pretend the training slice had full blocking coverage, so the live
	// run (whatever its real coverage) plus a feature rename breaches.
	base.Coverage = 1.0
	base.Features[0].Name = "gone_feature"

	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Profile: true})
	if err != nil {
		t.Fatalf("a drifted run must not fail: %v", err)
	}
	if got := outcomeSequence(res.Report); got[len(got)-1] != "quality:ok" {
		t.Fatalf("drifted run stages = %v, want a last quality:ok", got)
	}
	asmt, err := drift.Evaluate(base, reportProfile(t, res), drift.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !asmt.Breached() || asmt.Verdict != drift.StatusFail {
		t.Fatalf("expected a breach: %+v", asmt)
	}
}

// TestRunCtxNoDriftMeansNoQualityStage guards the disabled path: without
// RunOptions.Profile the report has no quality section or stage.
func TestRunCtxNoDriftMeansNoQualityStage(t *testing.T) {
	w, tp := hardenedFixture(t)
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Quality != nil {
		t.Fatalf("quality section on an unmonitored run: %+v", res.Report.Quality)
	}
	for _, st := range outcomeSequence(res.Report) {
		if strings.HasPrefix(st, "quality:") {
			t.Fatal("quality stage ran without RunOptions.Profile")
		}
	}
}

// TestRunCtxUnencodableProfileAborts: the report is a profile's one copy,
// so a profile JSON cannot encode — a feature that computes +Inf, as
// AbsDiff of two ±1e308 cells does — aborts the quality stage instead of
// leaving a report without it.
func TestRunCtxUnencodableProfileAborts(t *testing.T) {
	w, tp := hardenedFixture(t)
	fs := &feature.Set{Features: slices.Clone(w.Features.Features)}
	f := &fs.Features[0]
	f.Func, f.Compute = "", func(a, b table.Value) float64 { return math.Inf(1) }
	w.Features = fs
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Profile: true})
	if err == nil || !strings.Contains(err.Error(), "quality") || !strings.Contains(err.Error(), "+Inf") {
		t.Fatalf("err = %v, want the quality stage to abort on +Inf", err)
	}
	if got := outcomeSequence(res.Report); got[len(got)-1] != "quality:aborted" {
		t.Fatalf("stages = %v, want a last quality:aborted", got)
	}
	if res.Report.Quality != nil {
		t.Fatal("aborted run's report kept a quality section")
	}
}

// reportProfile is the profile a run's report carries, read back from
// the report's JSON as emmonitor check reads a -baseline or a -run.
func reportProfile(t *testing.T, res *Result) *drift.Profile {
	t.Helper()
	data, err := res.Report.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	p, err := drift.ProfileFromQuality(rep.Quality)
	if err != nil {
		t.Fatalf("the run's report carries no profile: %v", err)
	}
	return p
}

// profileOf is the profile in a run's report, as drift.ProfileFromQuality
// reads it, without its build time, the one field two runs over the same
// inputs may differ in.
func profileOf(t *testing.T, res *Result) drift.Profile {
	t.Helper()
	q, err := drift.ProfileFromQuality(res.Report.Quality)
	if err != nil {
		t.Fatalf("monitored run produced no profile: %v", err)
	}
	p := *q
	p.CreatedAt = time.Time{}
	return p
}

// TestMonitoredRunAboveCapIsDeterministic: past drift.DefaultSampleCap
// values a distribution is subsampled, and the sample must not depend on
// the order parallel workers finish in. It only bites with two or more
// workers, so make race-cpu runs it at -cpu 2.
func TestMonitoredRunAboveCapIsDeterministic(t *testing.T) {
	w, _ := hardenedFixture(t)
	w.Blockers = []block.Blocker{block.Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 1, Normalize: true}}
	// Every title carries "award", so all n×n pairs are candidates.
	words := strings.Fields("corn fungicide swamp dodder dairy cattle genetics carrot wisconsin ecology north central")
	rng := rand.New(rand.NewSource(3))
	slice := func(name, num string, n int) *table.Table {
		tab := table.New(name, table.MustSchema(
			table.Field{Name: "ID", Kind: table.String},
			table.Field{Name: "Num", Kind: table.String},
			table.Field{Name: "Title", Kind: table.String},
		))
		for i := 0; i < n; i++ {
			title := "award"
			for k := rng.Intn(5); k >= 0; k-- {
				title += " " + words[rng.Intn(len(words))]
			}
			tab.MustAppend(table.Row{table.S(fmt.Sprint(name, i)), table.S(fmt.Sprint(num, i)), table.S(title)})
		}
		return tab
	}
	l, r := slice("l", "N", 40), slice("r", "M", 40)

	var first drift.Profile
	for run := 0; run < 5; run++ {
		res, err := w.RunCtx(context.Background(), l, r, RunOptions{Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		p := profileOf(t, res)
		if run == 0 {
			if p.Predicted <= drift.DefaultSampleCap {
				t.Fatalf("slice decided %d pairs, want more than the cap %d", p.Predicted, drift.DefaultSampleCap)
			}
			first = p
			continue
		}
		if !reflect.DeepEqual(first, p) {
			t.Fatalf("run %d profiled the same slice differently from run 0", run)
		}
	}
}
