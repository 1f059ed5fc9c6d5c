package workflow

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"emgo/internal/block"
	"emgo/internal/drift"
	"emgo/internal/obs"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// TestRunCtxDriftCaptureAndCleanCheck is the TestSmoke/monitor property at
// unit scope: a capture run persists a baseline, and a second run over
// the same tables checked against that baseline scores zero drift.
func TestRunCtxDriftCaptureAndCleanCheck(t *testing.T) {
	w, tp := hardenedFixture(t)
	path := filepath.Join(t.TempDir(), "baseline.json")

	capRes, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{
		Drift: &DriftStage{BaselinePath: path},
	})
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
	found := false
	for _, e := range capRes.Log.Entries() {
		if e.Step == "quality" {
			found = true
		}
	}
	if !found {
		t.Fatal("no quality provenance entry on the capture run")
	}

	base, err := drift.LoadProfile(path)
	if err != nil {
		t.Fatalf("baseline not persisted: %v", err)
	}
	// The labeled accuracy estimate (Section 11) a baseline file may carry.
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
	for _, e := range chkRes.Log.Entries() {
		if e.Step == "quality" && e.Outcome != "" && e.Outcome != obs.OutcomeOK {
			t.Fatalf("clean check logged outcome %q", e.Outcome)
		}
	}
}

// TestRunCtxDriftCheckDegradedQuality perturbs the baseline so the check
// breaches, and asserts the degraded_quality outcome lands in provenance
// and in the quality stage span without failing the run.
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

	var prov *obs.ProvEntry
	for _, e := range res.Log.Entries() {
		if e.Step == "quality" {
			cp := e
			prov = &cp
		}
	}
	if prov == nil || prov.Outcome != obs.OutcomeDegradedQuality {
		t.Fatalf("quality provenance = %+v, want outcome %q", prov, obs.OutcomeDegradedQuality)
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
	for _, e := range res.Log.Entries() {
		if e.Step == "quality" {
			t.Fatal("quality stage ran without DriftStage")
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

// TestMonitoredResumedRunProfilesTheSameResult: a monitored run resumed
// from its checkpoints restores the learned stage instead of computing
// it, and must still profile the same result as the run that wrote them
// — a baseline captured on resume used to list no features, and every
// later check then failed missing.feature.
func TestMonitoredResumedRunProfilesTheSameResult(t *testing.T) {
	w, tp := hardenedFixture(t)
	capRes, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Drift: &DriftStage{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		drift DriftStage
	}{
		{"capture", DriftStage{}},
		{"check", DriftStage{Baseline: capRes.DriftProfile}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fresh, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Checkpoints: openTestStore(t, dir), Drift: &tc.drift})
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Checkpoints: openTestStore(t, dir), Drift: &tc.drift})
			if err != nil {
				t.Fatal(err)
			}
			if out := outcomeOf(t, resumed, "learned"); out != obs.OutcomeResumed {
				t.Fatalf("learned outcome = %q, want %q", out, obs.OutcomeResumed)
			}
			if a, b := profileOf(t, fresh), profileOf(t, resumed); !reflect.DeepEqual(a, b) {
				t.Fatalf("resumed run profiled %d features and %d predictions, the fresh run %d and %d",
					len(b.Features), b.Predicted, len(a.Features), a.Predicted)
			}
			if tc.drift.Baseline != nil && resumed.Quality.Verdict != drift.StatusOK {
				t.Fatalf("resumed check scored %q, want ok: %+v", resumed.Quality.Verdict, resumed.Quality.Signals)
			}
		})
	}
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
