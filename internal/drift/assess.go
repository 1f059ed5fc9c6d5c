package drift

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"emgo/internal/estimate"
	"emgo/internal/obs"
)

// Signal status and assessment verdict vocabulary.
const (
	// StatusOK marks a signal inside its warn threshold.
	StatusOK = "ok"
	// StatusWarn marks a signal between warn and fail.
	StatusWarn = "warn"
	// StatusFail marks a signal at or past fail.
	StatusFail = "fail"
)

// Thresholds are the configurable warn/fail cut points per signal
// family. A warn means "look at this run"; a fail means the deployed
// matcher's training-time accuracy claim should no longer be trusted
// for this slice (emmonitor check exits non-zero on it).
type Thresholds struct {
	// PSIWarn/PSIFail bound the worst per-distribution population
	// stability index (feature values, token counts, lengths, scores).
	// The conventional bands are 0.1 / 0.25.
	PSIWarn float64 `json:"psi_warn"`
	PSIFail float64 `json:"psi_fail"`
	// KSWarn/KSFail bound the worst two-sample KS statistic.
	KSWarn float64 `json:"ks_warn"`
	KSFail float64 `json:"ks_fail"`
	// NullRateWarn/NullRateFail bound the worst absolute null-rate
	// increase of any feature or profiled column.
	NullRateWarn float64 `json:"null_rate_warn"`
	NullRateFail float64 `json:"null_rate_fail"`
	// CoverageWarn/CoverageFail bound the drop in blocking coverage
	// (fraction of left rows with at least one candidate).
	CoverageWarn float64 `json:"coverage_warn"`
	CoverageFail float64 `json:"coverage_fail"`
	// MatchRateWarn/MatchRateFail bound the absolute change in the
	// matcher's predicted-match rate over candidates.
	MatchRateWarn float64 `json:"match_rate_warn"`
	MatchRateFail float64 `json:"match_rate_fail"`
}

// DefaultThresholds returns the conventional monitoring bands.
func DefaultThresholds() Thresholds {
	return Thresholds{
		PSIWarn: 0.10, PSIFail: 0.25,
		KSWarn: 0.15, KSFail: 0.30,
		NullRateWarn: 0.05, NullRateFail: 0.20,
		CoverageWarn: 0.05, CoverageFail: 0.20,
		MatchRateWarn: 0.10, MatchRateFail: 0.25,
	}
}

// Signal is one scored drift indicator.
type Signal struct {
	// Name is "psi.<dist>", "ks.<dist>", "null_rate.<dist>",
	// "coverage_drop", or "match_rate_delta".
	Name string `json:"name"`
	// Value is the observed statistic.
	Value float64 `json:"value"`
	// Warn and Fail are the thresholds the value was judged against.
	Warn float64 `json:"warn"`
	Fail float64 `json:"fail"`
	// Status is ok, warn, or fail.
	Status string `json:"status"`
}

// Assessment is the outcome of scoring a live profile against a
// baseline: the worst signal per family plus every breaching signal,
// and the drift-discounted accuracy estimate.
type Assessment struct {
	// Verdict is the worst signal status: ok, warn, or fail.
	Verdict string `json:"verdict"`
	// Signals carries the headline (worst-per-family) signals first,
	// then every additional signal that warned or failed.
	Signals []Signal `json:"signals"`
	// EstimatedPrecision is the Corleone-style accuracy carried from
	// the baseline (or self-estimated from prediction scores), widened
	// by the observed drift — the honest version of "94-100% precision"
	// for this slice. Nil when neither source is available.
	EstimatedPrecision *estimate.Interval `json:"estimated_precision,omitempty"`
	// Thresholds echoes the cut points the assessment used.
	Thresholds Thresholds `json:"thresholds"`
}

// Breached reports whether any signal failed.
func (a *Assessment) Breached() bool { return a != nil && a.Verdict == StatusFail }

// status grades one value against a warn/fail pair.
func status(v, warn, fail float64) string {
	switch {
	case fail > 0 && v >= fail:
		return StatusFail
	case warn > 0 && v >= warn:
		return StatusWarn
	default:
		return StatusOK
	}
}

// worse returns the more severe of two statuses.
func worse(a, b string) string {
	rank := map[string]int{StatusOK: 0, StatusWarn: 1, StatusFail: 2}
	if rank[b] > rank[a] {
		return b
	}
	return a
}

// namedDist pairs a distribution name with its baseline and live
// samples for the PSI/KS/null-rate sweep.
type namedDist struct {
	name       string
	base, live *Sample
}

// distributions aligns the comparable distributions of two profiles.
// Features align by name (the feature set is part of the deployed spec,
// so names are stable across runs), over the features the live profile
// has: a live profile lists every feature of the live run's set, so a
// baseline without one of them cannot score it (missing), and a baseline
// feature the live set lacks — a baseline captured under a wider set —
// is no signal. Columns align by side+name over the baseline's.
func distributions(base, live *Profile) ([]namedDist, []string) {
	var out []namedDist
	var missing []string
	baseFeat := make(map[string]*Sample, len(base.Features))
	for i := range base.Features {
		baseFeat[base.Features[i].Name] = &base.Features[i].Sample
	}
	for i := range live.Features {
		name := live.Features[i].Name
		bs, ok := baseFeat[name]
		if !ok {
			missing = append(missing, "feature "+name)
			continue
		}
		out = append(out, namedDist{"feature." + name, bs, &live.Features[i].Sample})
	}
	liveCol := make(map[string]*ColumnProfile, len(live.Columns))
	for i := range live.Columns {
		cp := &live.Columns[i]
		liveCol[cp.Side+"."+cp.Column] = cp
	}
	for i := range base.Columns {
		cp := &base.Columns[i]
		lc, ok := liveCol[cp.Side+"."+cp.Column]
		if !ok {
			missing = append(missing, "column "+cp.Side+"."+cp.Column)
			continue
		}
		out = append(out,
			namedDist{"tokens." + cp.Side + "." + cp.Column, &cp.Tokens, &lc.Tokens},
			namedDist{"len." + cp.Side + "." + cp.Column, &cp.Lengths, &lc.Lengths},
		)
	}
	out = append(out, namedDist{"scores", &base.Scores, &live.Scores})
	return out, missing
}

// Evaluate scores live against base under the given thresholds. Zero
// thresholds mean DefaultThresholds.
func Evaluate(base, live *Profile, th Thresholds) (*Assessment, error) {
	if base == nil || live == nil {
		return nil, fmt.Errorf("drift: evaluate needs both a baseline and a live profile")
	}
	if th == (Thresholds{}) {
		th = DefaultThresholds()
	}
	a := &Assessment{Verdict: StatusOK, Thresholds: th}

	dists, missing := distributions(base, live)
	// A feature the live run profiled that the baseline never did,
	// or a baseline column absent live, cannot be scored: fail.
	for _, m := range missing {
		a.add(Signal{Name: "missing." + m, Value: 1, Warn: 0.5, Fail: 0.5, Status: StatusFail})
	}

	worstPSI := Signal{Name: "psi", Warn: th.PSIWarn, Fail: th.PSIFail, Status: StatusOK}
	worstKS := Signal{Name: "ks", Warn: th.KSWarn, Fail: th.KSFail, Status: StatusOK}
	worstNull := Signal{Name: "null_rate", Warn: th.NullRateWarn, Fail: th.NullRateFail, Status: StatusOK}
	var extra []Signal
	for _, d := range dists {
		psi := PSI(d.base.Values, d.live.Values)
		ks := KS(d.base.Values, d.live.Values)
		nullDelta := math.Max(0, d.live.NullRate()-d.base.NullRate())
		for _, s := range []struct {
			worst      *Signal
			value      float64
			warn, fail float64
			prefix     string
		}{
			{&worstPSI, psi, th.PSIWarn, th.PSIFail, "psi."},
			{&worstKS, ks, th.KSWarn, th.KSFail, "ks."},
			{&worstNull, nullDelta, th.NullRateWarn, th.NullRateFail, "null_rate."},
		} {
			if s.value > s.worst.Value || !strings.Contains(s.worst.Name, ".") {
				s.worst.Name = s.prefix + d.name
				s.worst.Value = s.value
			}
			if st := status(s.value, s.warn, s.fail); st != StatusOK {
				extra = append(extra, Signal{Name: s.prefix + d.name, Value: s.value,
					Warn: s.warn, Fail: s.fail, Status: st})
			}
		}
	}
	worstPSI.Status = status(worstPSI.Value, th.PSIWarn, th.PSIFail)
	worstKS.Status = status(worstKS.Value, th.KSWarn, th.KSFail)
	worstNull.Status = status(worstNull.Value, th.NullRateWarn, th.NullRateFail)
	a.add(worstPSI)
	a.add(worstKS)
	a.add(worstNull)

	coverageDrop := math.Max(0, base.Coverage-live.Coverage)
	a.add(Signal{Name: "coverage_drop", Value: coverageDrop,
		Warn: th.CoverageWarn, Fail: th.CoverageFail,
		Status: status(coverageDrop, th.CoverageWarn, th.CoverageFail)})

	matchDelta := math.Abs(base.MatchRate() - live.MatchRate())
	a.add(Signal{Name: "match_rate_delta", Value: matchDelta,
		Warn: th.MatchRateWarn, Fail: th.MatchRateFail,
		Status: status(matchDelta, th.MatchRateWarn, th.MatchRateFail)})

	// Headline signals first, then the individual breaches (skipping
	// ones already shown as a headline).
	seen := make(map[string]bool, len(a.Signals))
	for _, s := range a.Signals {
		seen[s.Name] = true
	}
	for _, s := range extra {
		if !seen[s.Name] {
			seen[s.Name] = true
			a.Signals = append(a.Signals, s)
		}
	}

	a.EstimatedPrecision = estimatePrecision(base, live, a)
	return a, nil
}

// add appends a signal and folds its status into the verdict.
func (a *Assessment) add(s Signal) {
	a.Signals = append(a.Signals, s)
	a.Verdict = worse(a.Verdict, s.Status)
}

// estimatePrecision folds a Corleone-style accuracy estimate into the
// assessment (Section 11 via internal/estimate): the baseline's labeled
// estimate when it carries one, otherwise a self-estimate from the
// matcher's calibrated scores (mean P(match) over predicted matches,
// Wilson interval at the predicted-match count). Either way the
// interval is widened by the observed drift — the further the slice has
// moved from the training slice, the less the training-time numbers can
// be trusted.
func estimatePrecision(base, live *Profile, a *Assessment) *estimate.Interval {
	var iv estimate.Interval
	switch {
	case len(base.EstimatedPrecision) == 3:
		iv = estimate.Interval{
			Lo: base.EstimatedPrecision[0], Point: base.EstimatedPrecision[1], Hi: base.EstimatedPrecision[2],
		}
	case len(live.Scores.Values) > 0 && live.Predicted > 0:
		rate := meanAbove(live.Scores.Values, 0.5)
		iv = estimate.WilsonFromRate(rate, int(live.PredictedMatches))
	default:
		return nil
	}
	widened := iv.Widen(a.penalty())
	return &widened
}

// penalty maps the assessment's signals to an interval-widening amount
// in [0, 0.5]: each warn contributes a little uncertainty, each fail a
// lot. Zero drift leaves the estimate untouched.
func (a *Assessment) penalty() float64 {
	var p float64
	for _, s := range a.Signals {
		switch s.Status {
		case StatusWarn:
			p += 0.02
		case StatusFail:
			p += 0.10
		}
	}
	return math.Min(p, 0.5)
}

// meanAbove averages the values at or above the cut (the scores of
// predicted matches under a 0.5 decision threshold); falls back to the
// overall mean when none qualify.
func meanAbove(values []float64, cut float64) float64 {
	var sum float64
	n := 0
	for _, v := range values {
		if v >= cut {
			sum += v
			n++
		}
	}
	if n == 0 {
		s := Sample{Values: values}
		return s.Mean()
	}
	return sum / float64(n)
}

// QualityData renders the assessment (plus the live profile) in the
// neutral schema run reports embed, so obs has no dependency on this
// package.
func (a *Assessment) QualityData(live *Profile) *obs.QualityData {
	if a == nil {
		return nil
	}
	qd := &obs.QualityData{Verdict: a.Verdict}
	for _, s := range a.Signals {
		qd.Signals = append(qd.Signals, obs.QualitySignal{
			Name: s.Name, Value: s.Value, Warn: s.Warn, Fail: s.Fail, Status: s.Status,
		})
	}
	if a.EstimatedPrecision != nil {
		qd.EstimatedPrecision = []float64{
			a.EstimatedPrecision.Lo, a.EstimatedPrecision.Point, a.EstimatedPrecision.Hi,
		}
	}
	if live != nil {
		if data, err := json.Marshal(live); err == nil {
			qd.Profile = data
		}
	}
	return qd
}

// VerdictCaptured marks the quality section of a capture-mode run: the
// report embeds a profile but no drift assessment (there was no baseline
// to score against).
const VerdictCaptured = "captured"

// CaptureQuality renders a capture-mode profile as a report quality
// section: no signals, the VerdictCaptured verdict, and the profile
// embedded so emmonitor check can score the run later against any
// baseline.
func CaptureQuality(live *Profile) *obs.QualityData {
	if live == nil {
		return nil
	}
	qd := &obs.QualityData{Verdict: VerdictCaptured}
	if data, err := json.Marshal(live); err == nil {
		qd.Profile = data
	}
	return qd
}

// ProfileFromQuality recovers the live profile a run report embedded in
// its quality section (what emmonitor check re-evaluates against a
// baseline, possibly under different thresholds).
func ProfileFromQuality(qd *obs.QualityData) (*Profile, error) {
	if qd == nil || len(qd.Profile) == 0 {
		return nil, fmt.Errorf("drift: run report carries no quality profile")
	}
	return ParseProfile(qd.Profile)
}
