package workflow

import (
	"context"
	"path/filepath"
	"testing"

	"emgo/internal/drift"
	"emgo/internal/obs"
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
