package drift

import (
	"math"
	"strings"
	"testing"
	"time"

	"emgo/internal/obs"
)

// profileWith builds a minimal profile whose single feature holds the
// given sample values.
func profileWith(values []float64, nulls int64) *Profile {
	return &Profile{
		Version: profileVersion, Name: "t", CreatedAt: time.Unix(0, 0),
		SampleCap: DefaultSampleCap, LeftRows: 10, RightRows: 10,
		Features: []FeatureProfile{{
			Name:   "jaccard",
			Sample: Sample{Count: int64(len(values)) + nulls, Nulls: nulls, Values: values},
		}},
		Predicted: 100, PredictedMatches: 40, Coverage: 0.9,
	}
}

func TestEvaluateIdenticalIsOK(t *testing.T) {
	base := profileWith(normals(500, 0.5, 0.1, 1), 0)
	live := profileWith(append([]float64(nil), base.Features[0].Values...), 0)
	a, err := Evaluate(base, live, Thresholds{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if a.Verdict != StatusOK || a.Breached() {
		t.Fatalf("identical profiles: verdict %q breached=%v, want ok", a.Verdict, a.Breached())
	}
	if len(a.Signals) == 0 {
		t.Fatal("assessment carries no signals")
	}
}

func TestEvaluateShiftedFeatureFails(t *testing.T) {
	base := profileWith(normals(1000, 0.5, 0.05, 1), 0)
	live := profileWith(normals(1000, 0.9, 0.05, 2), 0)
	a, err := Evaluate(base, live, Thresholds{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if !a.Breached() {
		t.Fatalf("8-sigma feature shift did not breach: %+v", a.Signals)
	}
	// The headline PSI signal must name the drifted distribution.
	found := false
	for _, s := range a.Signals {
		if s.Name == "psi.feature.jaccard" && s.Status == StatusFail {
			found = true
		}
	}
	if !found {
		t.Fatalf("no failing psi.feature.jaccard signal in %+v", a.Signals)
	}
}

func TestEvaluateNullRateIncrease(t *testing.T) {
	base := profileWith(normals(400, 0.5, 0.1, 1), 0)
	live := profileWith(append([]float64(nil), base.Features[0].Values...), 400) // 50% null
	a, err := Evaluate(base, live, Thresholds{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	var null Signal
	for _, s := range a.Signals {
		if s.Name == "null_rate.feature.jaccard" {
			null = s
		}
	}
	if null.Status != StatusFail || null.Value != 0.5 {
		t.Fatalf("null-rate signal = %+v, want fail at 0.5", null)
	}
}

func TestEvaluateCoverageDrop(t *testing.T) {
	base := profileWith(normals(100, 0.5, 0.1, 1), 0)
	live := profileWith(append([]float64(nil), base.Features[0].Values...), 0)
	live.Coverage = base.Coverage - 0.5
	a, err := Evaluate(base, live, Thresholds{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	var cov Signal
	for _, s := range a.Signals {
		if s.Name == "coverage_drop" {
			cov = s
		}
	}
	if cov.Status != StatusFail || cov.Value != 0.5 {
		t.Fatalf("coverage_drop = %+v, want fail at 0.5", cov)
	}
}

// TestEvaluateMissingFeatureFails: a live profile lists every feature of
// the live run's set, so a baseline that never profiled one of them fails
// the check by name — and a baseline feature the live set lacks (a
// baseline captured under a wider set) is no signal at all.
func TestEvaluateMissingFeatureFails(t *testing.T) {
	base := profileWith(normals(100, 0.5, 0.1, 1), 0)
	live := profileWith(append([]float64(nil), base.Features[0].Values...), 0)
	live.Features[0].Name = "renamed"
	a, err := Evaluate(base, live, Thresholds{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if !a.Breached() {
		t.Fatal("schema break (live feature missing from the baseline) did not breach")
	}
	found := false
	for _, s := range a.Signals {
		if s.Name == "missing.feature renamed" && s.Status == StatusFail {
			found = true
		}
	}
	if !found {
		t.Fatalf("no missing-feature signal in %+v", a.Signals)
	}

	wide := profileWith(append([]float64(nil), base.Features[0].Values...), 0)
	wide.Features = append(wide.Features, FeatureProfile{Name: "unread", Sample: Sample{Count: 100, Values: normals(100, 5, 1, 2)}})
	a, err = Evaluate(wide, base, Thresholds{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if a.Verdict != StatusOK {
		t.Fatalf("a baseline feature the live matcher does not read moved the verdict: %+v", a.Signals)
	}
	for _, s := range a.Signals {
		if strings.Contains(s.Name, "unread") {
			t.Fatalf("signal over an unread baseline feature: %+v", s)
		}
	}
}

func TestEvaluateRequiresBothProfiles(t *testing.T) {
	if _, err := Evaluate(nil, profileWith(nil, 0), Thresholds{}); err == nil {
		t.Fatal("Evaluate accepted a nil baseline")
	}
	if _, err := Evaluate(profileWith(nil, 0), nil, Thresholds{}); err == nil {
		t.Fatal("Evaluate accepted a nil live profile")
	}
}

func TestEstimatedPrecisionWidensWithDrift(t *testing.T) {
	base := profileWith(normals(1000, 0.5, 0.05, 1), 0)
	base.EstimatedPrecision = []float64{0.94, 0.97, 1.0}

	same := profileWith(append([]float64(nil), base.Features[0].Values...), 0)
	aOK, err := Evaluate(base, same, Thresholds{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if aOK.EstimatedPrecision == nil {
		t.Fatal("no estimated precision carried from the baseline")
	}
	if aOK.EstimatedPrecision.Lo != 0.94 || aOK.EstimatedPrecision.Hi != 1.0 {
		t.Fatalf("zero drift changed the interval: %+v", aOK.EstimatedPrecision)
	}

	drifted := profileWith(normals(1000, 0.9, 0.05, 2), 0)
	aBad, err := Evaluate(base, drifted, Thresholds{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if aBad.EstimatedPrecision.Lo >= aOK.EstimatedPrecision.Lo {
		t.Fatalf("drift did not widen the interval: ok lo %g, drifted lo %g",
			aOK.EstimatedPrecision.Lo, aBad.EstimatedPrecision.Lo)
	}
	if aBad.EstimatedPrecision.Point != 0.97 {
		t.Fatalf("widening moved the point estimate: %g", aBad.EstimatedPrecision.Point)
	}
}

func TestEstimatedPrecisionSelfEstimateFromScores(t *testing.T) {
	base := profileWith(normals(200, 0.5, 0.05, 1), 0)
	live := profileWith(append([]float64(nil), base.Features[0].Values...), 0)
	live.Scores = Sample{Count: 100, Values: []float64{0.9, 0.95, 0.2, 0.8}}
	live.Predicted, live.PredictedMatches = 100, 40
	a, err := Evaluate(base, live, Thresholds{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if a.EstimatedPrecision == nil {
		t.Fatal("no self-estimate produced from calibrated scores")
	}
	// Mean of the >= 0.5 scores: (0.9 + 0.95 + 0.8) / 3.
	want := (0.9 + 0.95 + 0.8) / 3
	if got := a.EstimatedPrecision.Point; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("self-estimate point = %g, want %g", got, want)
	}
}

// TestQualityDataRoundTrip: the quality section a capture writes is its
// profile alone, and it survives a report's JSON.
func TestQualityDataRoundTrip(t *testing.T) {
	live := profileWith(normals(200, 0.52, 0.05, 2), 0)
	qd, err := CaptureQuality(live)
	if err != nil {
		t.Fatal(err)
	}
	data, err := (&obs.Report{Name: "wf", Quality: qd}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "verdict") {
		t.Fatalf("a capture's quality section carries a verdict:\n%s", data)
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ProfileFromQuality(rep.Quality)
	if err != nil {
		t.Fatalf("ProfileFromQuality: %v", err)
	}
	if got.Name != live.Name || len(got.Features) != len(live.Features) {
		t.Fatalf("embedded profile did not round-trip: %+v", got)
	}
}

func TestCaptureQuality(t *testing.T) {
	qd, err := CaptureQuality(profileWith(nil, 0))
	if err != nil || len(qd.Profile) == 0 {
		t.Fatalf("capture quality section = %+v, %v", qd, err)
	}
	if _, err := ProfileFromQuality(qd); err != nil {
		t.Fatalf("capture section profile unreadable: %v", err)
	}
	// The report is the profile's one copy: one JSON cannot encode is an
	// error, not a section without it.
	inf := profileWith([]float64{0.5, math.Inf(1)}, 0)
	if qd, err := CaptureQuality(inf); err == nil || qd != nil || !strings.Contains(err.Error(), "+Inf") {
		t.Fatalf("CaptureQuality(+Inf) = %+v, %v; want an encoding error", qd, err)
	}
}

func TestPenaltyMonotoneAndCapped(t *testing.T) {
	a := &Assessment{}
	if a.penalty() != 0 {
		t.Fatalf("penalty with no signals = %g", a.penalty())
	}
	a.Signals = []Signal{{Status: StatusWarn}}
	warn1 := a.penalty()
	a.Signals = append(a.Signals, Signal{Status: StatusFail})
	warnFail := a.penalty()
	if !(warn1 > 0 && warnFail > warn1) {
		t.Fatalf("penalty not monotone: %g then %g", warn1, warnFail)
	}
	for i := 0; i < 20; i++ {
		a.Signals = append(a.Signals, Signal{Status: StatusFail})
	}
	if a.penalty() != 0.5 {
		t.Fatalf("penalty cap = %g, want 0.5", a.penalty())
	}
}

func TestThresholdZeroValueSelectsDefaults(t *testing.T) {
	base := profileWith(normals(100, 0.5, 0.1, 1), 0)
	live := profileWith(append([]float64(nil), base.Features[0].Values...), 0)
	a, err := Evaluate(base, live, Thresholds{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if a.Thresholds != DefaultThresholds() {
		t.Fatalf("zero thresholds were not defaulted: %+v", a.Thresholds)
	}
}
