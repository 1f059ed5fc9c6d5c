package workflow

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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
// unit scope: a capture run's report is a baseline carrying its whole
// profile, and a second run over the same tables checked against that
// baseline scores zero drift.
func TestRunCtxDriftCaptureAndCleanCheck(t *testing.T) {
	w, tp := hardenedFixture(t)
	path := filepath.Join(t.TempDir(), "run1.json")

	capRes, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Drift: &DriftStage{}})
	if err != nil {
		t.Fatal(err)
	}
	if capRes.DriftProfile == nil {
		t.Fatal("capture run produced no profile")
	}
	if capRes.DriftProfile.LeftRows != tp.l.Len() || capRes.DriftProfile.RightRows != tp.r.Len() {
		t.Fatalf("profile rows %d/%d, want %d/%d",
			capRes.DriftProfile.LeftRows, capRes.DriftProfile.RightRows, tp.l.Len(), tp.r.Len())
	}
	if len(capRes.DriftProfile.Features) == 0 || len(capRes.DriftProfile.Columns) == 0 {
		t.Fatalf("profile missing distributions: %d features, %d columns",
			len(capRes.DriftProfile.Features), len(capRes.DriftProfile.Columns))
	}
	if capRes.Report == nil || capRes.Report.Quality == nil ||
		capRes.Report.Quality.Verdict != drift.VerdictCaptured {
		t.Fatalf("capture report quality section: %+v", capRes.Report.Quality)
	}
	if got := outcomeSequence(capRes.Report); got[len(got)-1] != "quality:ok" {
		t.Fatalf("capture run stages = %v, want a last quality:ok", got)
	}

	data, err := capRes.Report.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := drift.LoadBaseline(path)
	if err != nil {
		t.Fatalf("the capture report is no baseline: %v", err)
	}
	if !base.CreatedAt.Equal(capRes.DriftProfile.CreatedAt) {
		t.Fatalf("baseline created_at %v, want %v", base.CreatedAt, capRes.DriftProfile.CreatedAt)
	}
	got := *base
	got.CreatedAt = time.Time{}
	if !reflect.DeepEqual(got, profileOf(t, capRes)) {
		t.Fatal("the report's profile differs from the run's")
	}
	// The labeled accuracy estimate (Section 11) a baseline may carry.
	base.EstimatedPrecision = []float64{0.9, 0.95, 1.0}

	chkRes, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{
		Drift: &DriftStage{Baseline: base},
	})
	if err != nil {
		t.Fatal(err)
	}
	if chkRes.Quality == nil {
		t.Fatal("check run produced no assessment")
	}
	if chkRes.Quality.Verdict != drift.StatusOK {
		t.Fatalf("identical slice scored %q, want ok: %+v", chkRes.Quality.Verdict, chkRes.Quality.Signals)
	}
	if chkRes.Quality.EstimatedPrecision == nil || chkRes.Quality.EstimatedPrecision.Lo != 0.9 {
		t.Fatalf("drift-free check changed the accuracy estimate: %+v", chkRes.Quality.EstimatedPrecision)
	}
	if chkRes.Report.Quality == nil || chkRes.Report.Quality.Verdict != drift.StatusOK {
		t.Fatalf("check report quality section: %+v", chkRes.Report.Quality)
	}
	if _, err := drift.ProfileFromQuality(chkRes.Report.Quality); err != nil {
		t.Fatalf("report does not embed the live profile: %v", err)
	}
	if got := outcomeSequence(chkRes.Report); got[len(got)-1] != "quality:ok" {
		t.Fatalf("clean check stages = %v, want a last quality:ok", got)
	}
}

// TestRunCtxDriftCheckDegradedQuality perturbs the baseline so the check
// breaches, and asserts the degraded_quality outcome lands in the quality
// stage span without failing the run.
func TestRunCtxDriftCheckDegradedQuality(t *testing.T) {
	w, tp := hardenedFixture(t)

	capRes, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Drift: &DriftStage{}})
	if err != nil {
		t.Fatal(err)
	}
	base := capRes.DriftProfile
	// Pretend the training slice had full blocking coverage, so the live
	// run (whatever its real coverage) plus a feature rename breaches.
	base.Coverage = 1.0
	base.Features[0].Name = "gone_feature"

	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{
		Drift: &DriftStage{Baseline: base},
	})
	if err != nil {
		t.Fatalf("a quality breach must not fail the run: %v", err)
	}
	if res.Quality == nil || !res.Quality.Breached() {
		t.Fatalf("expected a breach: %+v", res.Quality)
	}

	foundSpan := false
	for _, c := range res.Report.Trace.Children {
		if c.Name == "stage.quality" {
			foundSpan = true
			if c.Outcome != obs.OutcomeDegradedQuality {
				t.Fatalf("quality span outcome = %q, want %q", c.Outcome, obs.OutcomeDegradedQuality)
			}
		}
	}
	if !foundSpan {
		t.Fatal("no stage.quality span in the report trace")
	}
	if res.Report.Quality.Verdict != drift.StatusFail {
		t.Fatalf("report verdict = %q, want fail", res.Report.Quality.Verdict)
	}
}

// TestRunCtxNoDriftMeansNoQualityStage guards the disabled path: without
// DriftStage the result has no profile, no assessment, and no quality
// section or stage.
func TestRunCtxNoDriftMeansNoQualityStage(t *testing.T) {
	w, tp := hardenedFixture(t)
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DriftProfile != nil || res.Quality != nil || res.Report.Quality != nil {
		t.Fatalf("quality artifacts on an unmonitored run: %+v %+v %+v",
			res.DriftProfile, res.Quality, res.Report.Quality)
	}
	for _, st := range outcomeSequence(res.Report) {
		if strings.HasPrefix(st, "quality:") {
			t.Fatal("quality stage ran without DriftStage")
		}
	}
}

// TestRunCtxUnencodableProfileAborts: the report is a profile's one copy,
// so a profile JSON cannot encode — a feature that computes +Inf, as
// AbsDiff of two ±1e308 cells does — aborts the quality stage, in
// capture and check mode alike, instead of leaving a report without it.
func TestRunCtxUnencodableProfileAborts(t *testing.T) {
	w, tp := hardenedFixture(t)
	clean, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Drift: &DriftStage{}})
	if err != nil {
		t.Fatal(err)
	}
	fs := &feature.Set{Features: slices.Clone(w.Features.Features)}
	f := &fs.Features[0]
	f.Func, f.Compute = "", func(a, b table.Value) float64 { return math.Inf(1) }
	w.Features = fs
	for _, d := range []*DriftStage{{}, {Baseline: clean.DriftProfile}} {
		res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Drift: d})
		if err == nil || !strings.Contains(err.Error(), "quality") || !strings.Contains(err.Error(), "+Inf") {
			t.Fatalf("baseline %v: err = %v, want the quality stage to abort on +Inf", d.Baseline != nil, err)
		}
		if got := outcomeSequence(res.Report); got[len(got)-1] != "quality:aborted" {
			t.Fatalf("baseline %v: stages = %v, want a last quality:aborted", d.Baseline != nil, got)
		}
		if res.Report.Quality != nil {
			t.Fatalf("baseline %v: aborted run's report kept a quality section", d.Baseline != nil)
		}
	}
}

// profileOf is a run's profile without its build time, the one field
// two runs over the same inputs may differ in.
func profileOf(t *testing.T, res *Result) drift.Profile {
	t.Helper()
	if res.DriftProfile == nil {
		t.Fatal("monitored run produced no profile")
	}
	p := *res.DriftProfile
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
		res, err := w.RunCtx(context.Background(), l, r, RunOptions{Drift: &DriftStage{}})
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
