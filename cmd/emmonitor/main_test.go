package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"emgo/internal/drift"
	"emgo/internal/obs"
)

// fixtureProfiles builds a baseline and a live profile; drifted controls
// whether the live one is shifted far past the fail thresholds.
func fixtureProfiles(t *testing.T, drifted bool) (*drift.Profile, *drift.Profile) {
	t.Helper()
	build := func(mean float64, name string) *drift.Profile {
		b := drift.NewBuilder()
		x := make([][]float64, 400)
		for i := range x {
			x[i] = []float64{mean + float64(i%100)/1000}
			b.ObserveScore(mean)
		}
		b.ObserveVectors([]string{"jaccard"}, x)
		b.CountPredictions(len(x), len(x)/2)
		return b.Profile(name, 100, 100, []int{1, 2, 3, 0}, nil)
	}
	base := build(0.2, "baseline")
	live := base
	if drifted {
		live = build(0.9, "live")
	} else {
		live = build(0.2, "live")
	}
	return base, live
}

// writeRunReport persists, as dir/name, the report of a monitored run
// embedding profile p — a baseline or a run to check.
func writeRunReport(t *testing.T, dir, name string, p *drift.Profile) string {
	t.Helper()
	qd, err := drift.CaptureQuality(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := &obs.Report{
		Name: "deploy-slice", Outcome: "ok",
		StartedAt: time.Unix(10, 0), FinishedAt: time.Unix(12, 0),
		Quality: qd,
	}
	path := filepath.Join(dir, name)
	writeReport(t, rep, path)
	return path
}

func TestCheckPassesOnIdenticalProfile(t *testing.T) {
	dir := t.TempDir()
	base, live := fixtureProfiles(t, false)
	basePath := writeRunReport(t, dir, "run1.json", base)
	runPath := writeRunReport(t, dir, "run.json", live)

	var out, errOut strings.Builder
	if err := run([]string{"check", "-baseline", basePath, "-run", runPath}, &out, &errOut); err != nil {
		t.Fatalf("clean check failed: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "verdict ok") {
		t.Fatalf("check output:\n%s", out.String())
	}
}

func TestCheckBreachesOnDriftedProfile(t *testing.T) {
	dir := t.TempDir()
	base, live := fixtureProfiles(t, true)
	basePath := writeRunReport(t, dir, "run1.json", base)
	runPath := writeRunReport(t, dir, "run.json", live)

	var out, errOut strings.Builder
	err := run([]string{"check", "-baseline", basePath, "-run", runPath}, &out, &errOut)
	if !errors.Is(err, errBreach) {
		t.Fatalf("drifted check returned %v, want errBreach\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verdict fail") {
		t.Fatalf("check output:\n%s", out.String())
	}
}

func TestCheckCustomThresholdsAndStrict(t *testing.T) {
	dir := t.TempDir()
	base, live := fixtureProfiles(t, false)
	basePath := writeRunReport(t, dir, "run1.json", base)
	runPath := writeRunReport(t, dir, "run.json", live)
	_, drifted := fixtureProfiles(t, true)
	driftedPath := writeRunReport(t, dir, "drifted.json", drifted)
	for _, tc := range []struct {
		name, thresholds, run string
		breach                bool
		lines                 []string // fragments of the signal lines
	}{
		// A typoed threshold key, and a second object after the first,
		// are rejected: the check could not run.
		{name: "typoed key", thresholds: `{"psi_wrn": 0.5}`, run: runPath},
		{name: "trailing object", thresholds: `{"psi_fail": 0.3} {"psi_wrn": 1}`, run: runPath},
		// A partial file overrides the bar it names; every other signal
		// keeps its default bars, so the drifted KS still fails.
		{name: "partial file", thresholds: `{"psi_fail": 0.3}`, run: driftedPath, breach: true, lines: []string{
			"X psi.feature.jaccard", "(warn 0.10 fail 0.30)",
			"X ks.feature.jaccard", "1.0000 (warn 0.15 fail 0.30)",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			th := filepath.Join(dir, "th.json")
			if err := writeFile(th, tc.thresholds); err != nil {
				t.Fatal(err)
			}
			var out, errOut strings.Builder
			err := run([]string{"check", "-baseline", basePath, "-run", tc.run, "-thresholds", th}, &out, &errOut)
			if tc.breach != errors.Is(err, errBreach) || err == nil {
				t.Fatalf("thresholds %s: err = %v, want breach %v\n%s", tc.thresholds, err, tc.breach, out.String())
			}
			for _, want := range tc.lines {
				if !strings.Contains(out.String(), want) {
					t.Fatalf("thresholds %s: output lacks %q:\n%s", tc.thresholds, want, out.String())
				}
			}
		})
	}
}

func TestCheckRejectsReportWithoutProfile(t *testing.T) {
	dir := t.TempDir()
	base, _ := fixtureProfiles(t, false)
	basePath := writeRunReport(t, dir, "run1.json", base)
	rep := &obs.Report{Name: "plain", Outcome: "ok"}
	runPath := filepath.Join(dir, "run.json")
	writeReport(t, rep, runPath)
	var out, errOut strings.Builder
	err := run([]string{"check", "-baseline", basePath, "-run", runPath}, &out, &errOut)
	if err == nil || errors.Is(err, errBreach) {
		t.Fatalf("report without profile: %v", err)
	}
}

// TestCheckRejectsBaselineWithoutProfile: a baseline is a monitored run's
// report; one without a profile is an error (exit 2) that names it.
func TestCheckRejectsBaselineWithoutProfile(t *testing.T) {
	dir := t.TempDir()
	_, live := fixtureProfiles(t, false)
	runPath := writeRunReport(t, dir, "run.json", live)
	basePath := filepath.Join(dir, "unmonitored.json")
	writeReport(t, &obs.Report{Name: "plain", Outcome: "ok"}, basePath)
	var out, errOut strings.Builder
	err := run([]string{"check", "-baseline", basePath, "-run", runPath}, &out, &errOut)
	if err == nil || errors.Is(err, errBreach) || errors.Is(err, flag.ErrHelp) ||
		!strings.Contains(err.Error(), basePath) || !strings.Contains(err.Error(), "no quality profile") {
		t.Fatalf("baseline without profile: err = %v, want an exit-2 error naming %s", err, basePath)
	}
}

func TestDiffSubcommand(t *testing.T) {
	dir := t.TempDir()
	a := &obs.Report{Name: "a", Outcome: "ok",
		Trace: &obs.SpanData{Name: "emmatch", Children: []*obs.SpanData{{Name: "ml.predict", Items: 10}}}}
	b := &obs.Report{Name: "b", Outcome: "ok",
		Trace: &obs.SpanData{Name: "emmatch", Children: []*obs.SpanData{{Name: "ml.predict", Items: 30}}}}
	pa := filepath.Join(dir, "a.json")
	pb := filepath.Join(dir, "b.json")
	writeReport(t, a, pa)
	writeReport(t, b, pb)
	var out, errOut strings.Builder
	if err := run([]string{"diff", pa, pb}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	_, items, ok := strings.Cut(out.String(), "span items:")
	if !ok || !strings.Contains(items, "ml.predict") || !strings.Contains(items, "+20") {
		t.Fatalf("diff output:\n%s", out.String())
	}
}

// metricsEraReport is a run report as emmatch wrote it while the process
// kept a metrics registry (trace cut to one stage and one join): beside
// the span tree it has a "metrics" section of counters and histograms,
// with the gauges and float_gauges kinds of still older reports, and a
// provenance section.
const metricsEraReport = `{"name":"emmatch","started_at":"2026-10-05T10:00:00Z","finished_at":"2026-10-05T10:00:01Z","outcome":"ok",` +
	`"trace":{"name":"emmatch","start":"2026-10-05T10:00:00Z","duration_ms":9,"outcome":"ok","children":[` +
	`{"name":"stage.blocked","start":"2026-10-05T10:00:00Z","duration_ms":5,"items":1,"outcome":"ok","children":[` +
	`{"name":"block.join","start":"2026-10-05T10:00:00Z","duration_ms":4,"items":1,"outcome":"ok"}]}]},` +
	`"provenance":[{"step":"blocked","detail":"union of blockers","count":1},{"step":"final","detail":"sure matches plus surviving predictions","count":1}],` +
	`"metrics":{"counters":{"block.candset.ops":2,"block.pairs_blocked":1},"gauges":{"block.candidates":1},` +
	`"float_gauges":{"drift.coverage_drop":0,"drift.ks":0,"drift.match_rate_delta":0,"drift.null_rate":0,"drift.psi":0},` +
	`"histograms":{"workflow.stage_ms":{"bounds":[1,5],"counts":[7,0,0],"count":7,"sum":0.048139,"p50":0.5,"p90":0.9,"p99":0.99,"p999":0.020494,"max":0.020494}}}}`

// checkEraReport is a run report as emmatch wrote it while it could
// judge a run against a baseline itself (trace cut to two stages): its
// quality section carries the verdict, the scored signals and the
// drift-discounted precision beside the profile, which the test splices
// in for PROFILE.
const checkEraReport = `{"name":"workflow.v","started_at":"2026-10-20T10:00:00Z","finished_at":"2026-10-20T10:00:01Z","outcome":"ok",` +
	`"trace":{"name":"emmatch","start":"2026-10-20T10:00:00Z","duration_ms":9,"outcome":"ok","children":[` +
	`{"name":"stage.blocked","start":"2026-10-20T10:00:00Z","duration_ms":5,"items":1,"outcome":"ok","children":[` +
	`{"name":"block.join","start":"2026-10-20T10:00:00Z","duration_ms":4,"items":1,"outcome":"ok"}]},` +
	`{"name":"stage.quality","start":"2026-10-20T10:00:00Z","duration_ms":2,"items":2,"outcome":"ok"}]},` +
	`"quality":{"verdict":"ok","signals":[{"name":"coverage_drop","value":0.01,"warn":0.05,"fail":0.2,"status":"ok"},` +
	`{"name":"match_rate_delta","value":0,"warn":0.1,"fail":0.25,"status":"ok"}],"estimated_precision":[0.8,0.9,1],"profile":PROFILE}}`

// TestOldReportsStillLoad: a report written while there was a metrics
// section, or while emmatch stamped a verdict into its quality section,
// still loads — a drift baseline is a run report, so one captured or
// checked then must keep working. Diff ignores those sections and
// compares the stage and items rows of the trace; check reads an old
// report as -run and as -baseline (and finds no profile in it, or the
// one it carries).
func TestOldReportsStillLoad(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(metricsEraReport), 0o644); err != nil {
		t.Fatal(err)
	}
	now := &obs.Report{Name: "emmatch", Outcome: "ok",
		Trace: &obs.SpanData{Name: "emmatch", DurationMS: 9, Children: []*obs.SpanData{
			{Name: "stage.blocked", DurationMS: 7, Items: 4, Children: []*obs.SpanData{{Name: "block.join", DurationMS: 4, Items: 4}}}}}}
	cur := filepath.Join(dir, "now.json")
	writeReport(t, now, cur)
	var out, errOut strings.Builder
	if err := run([]string{"diff", old, cur}, &out, &errOut); err != nil {
		t.Fatalf("diff against a report with a metrics section: %v", err)
	}
	for _, want := range []string{"stage wall time (ms):\n  stage.blocked", "span items:\n  block.join", "(+3)", "(+2)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("diff output lacks %q:\n%s", want, out.String())
		}
	}
	for _, gone := range []string{"block.pairs_blocked", "block.candset.ops", "workflow.stage_ms", "counters"} {
		if strings.Contains(out.String(), gone) {
			t.Fatalf("diff output shows the old metrics section's %s:\n%s", gone, out.String())
		}
	}

	_, live := fixtureProfiles(t, false)
	runPath := writeRunReport(t, dir, "run.json", live)
	err := run([]string{"check", "-baseline", old, "-run", runPath}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), old+": drift: run report carries no quality profile") {
		t.Fatalf("check against an old report without a profile: %v", err)
	}
	qd, err := drift.CaptureQuality(live)
	if err != nil {
		t.Fatal(err)
	}
	captured := filepath.Join(dir, "old-captured.json")
	if err := writeFile(captured, strings.Replace(metricsEraReport, `"outcome":"ok",`,
		`"outcome":"ok","quality":{"verdict":"captured","profile":`+string(qd.Profile)+`},`, 1)); err != nil {
		t.Fatal(err)
	}
	checked := filepath.Join(dir, "old-checked.json")
	if err := writeFile(checked, strings.Replace(checkEraReport, "PROFILE", string(qd.Profile), 1)); err != nil {
		t.Fatal(err)
	}
	for _, oldPath := range []string{captured, checked} {
		for _, args := range [][]string{
			{"check", "-baseline", oldPath, "-run", runPath},
			{"check", "-baseline", runPath, "-run", oldPath},
		} {
			out.Reset()
			if err := run(args, &out, &errOut); err != nil || !strings.Contains(out.String(), "verdict ok") {
				t.Fatalf("%v with an old monitored report: %v\n%s", args, err, out.String())
			}
		}
	}

	// The old verdict and signals are no diff rows: check judges quality.
	out.Reset()
	if err := run([]string{"diff", checked, cur}, &out, &errOut); err != nil {
		t.Fatalf("diff against a checked report: %v", err)
	}
	for _, want := range []string{"stage wall time (ms):\n  stage.blocked", "stage.quality", "span items:\n  block.join", "(+3)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("diff output lacks %q:\n%s", want, out.String())
		}
	}
	for _, gone := range []string{"verdict", "quality ok", "quality signals", "coverage_drop", "estimated"} {
		if strings.Contains(out.String(), gone) {
			t.Fatalf("diff output shows the old quality section's %q:\n%s", gone, out.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(nil, &out, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("no args: %v", err)
	}
	if err := run([]string{"bogus"}, &out, &errOut); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"check"}, &out, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("check without flags: %v", err)
	}
	if err := run([]string{"diff", "only-one"}, &out, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("diff with one arg: %v", err)
	}
	// A run's record is its report file: there is no history to list or
	// to take the newest run of.
	if err := run([]string{"history", "-dir", "x"}, &out, &errOut); err == nil || errors.Is(err, errBreach) ||
		!strings.Contains(err.Error(), `unknown subcommand "history"`) {
		t.Fatalf("history -dir x: want an unknown-subcommand usage error, got %v", err)
	}
	if err := run([]string{"check", "-baseline", "b.json", "-dir", "x"}, &out, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("check -dir x: want a usage error, got %v", err)
	}
	// slo is no subcommand: emload's gate judges the objectives.
	if err := run([]string{"slo", "-url", "x"}, &out, &errOut); err == nil || errors.Is(err, errBreach) ||
		!strings.Contains(err.Error(), `unknown subcommand "slo"`) {
		t.Fatalf("slo -url x: want an unknown-subcommand usage error, got %v", err)
	}
}

// writeFile is a tiny test helper for literal fixtures.
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// writeReport writes rep to path as a run report.
func writeReport(t *testing.T, rep *obs.Report, path string) {
	t.Helper()
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
