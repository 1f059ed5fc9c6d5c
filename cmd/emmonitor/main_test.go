package main

import (
	"encoding/json"
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

// writeRunReport persists a run report embedding the live profile.
func writeRunReport(t *testing.T, dir string, live *drift.Profile) string {
	t.Helper()
	rep := &obs.Report{
		Name: "deploy-slice", Outcome: "ok",
		StartedAt: time.Unix(10, 0), FinishedAt: time.Unix(12, 0),
		Quality: drift.CaptureQuality(live),
	}
	path := filepath.Join(dir, "run.json")
	writeReport(t, rep, path)
	return path
}

func TestCheckPassesOnIdenticalProfile(t *testing.T) {
	dir := t.TempDir()
	base, live := fixtureProfiles(t, false)
	basePath := filepath.Join(dir, "baseline.json")
	if err := base.WriteFile(basePath); err != nil {
		t.Fatal(err)
	}
	runPath := writeRunReport(t, dir, live)

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
	basePath := filepath.Join(dir, "baseline.json")
	if err := base.WriteFile(basePath); err != nil {
		t.Fatal(err)
	}
	runPath := writeRunReport(t, dir, live)

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
	basePath := filepath.Join(dir, "baseline.json")
	if err := base.WriteFile(basePath); err != nil {
		t.Fatal(err)
	}
	// The identical profiles differ only in row counts (none here), so
	// with an absurdly tight warn threshold on nothing they still pass;
	// instead verify a typoed threshold key, and a second object after
	// the first, are rejected.
	runPath := writeRunReport(t, dir, live)
	for _, bad := range []string{`{"psi_wrn": 0.5}`, `{"psi_fail": 0.3} {"psi_wrn": 1}`} {
		badTh := filepath.Join(dir, "th.json")
		if err := writeFile(badTh, bad); err != nil {
			t.Fatal(err)
		}
		var out, errOut strings.Builder
		err := run([]string{"check", "-baseline", basePath, "-run", runPath, "-thresholds", badTh}, &out, &errOut)
		if err == nil || errors.Is(err, errBreach) {
			t.Fatalf("thresholds %s accepted: %v", bad, err)
		}
	}
}

func TestCheckRejectsReportWithoutProfile(t *testing.T) {
	dir := t.TempDir()
	base, _ := fixtureProfiles(t, false)
	basePath := filepath.Join(dir, "baseline.json")
	if err := base.WriteFile(basePath); err != nil {
		t.Fatal(err)
	}
	rep := &obs.Report{Name: "plain", Outcome: "ok"}
	runPath := filepath.Join(dir, "run.json")
	writeReport(t, rep, runPath)
	var out, errOut strings.Builder
	err := run([]string{"check", "-baseline", basePath, "-run", runPath}, &out, &errOut)
	if err == nil || errors.Is(err, errBreach) {
		t.Fatalf("report without profile: %v", err)
	}
}

func TestDiffSubcommand(t *testing.T) {
	dir := t.TempDir()
	a := &obs.Report{Name: "a", Outcome: "ok",
		Metrics: &obs.MetricsSnapshot{Counters: map[string]int64{"ml.predictions": 10}}}
	b := &obs.Report{Name: "b", Outcome: "ok",
		Metrics: &obs.MetricsSnapshot{Counters: map[string]int64{"ml.predictions": 30}}}
	pa := filepath.Join(dir, "a.json")
	pb := filepath.Join(dir, "b.json")
	writeReport(t, a, pa)
	writeReport(t, b, pb)
	var out, errOut strings.Builder
	if err := run([]string{"diff", pa, pb}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ml.predictions") || !strings.Contains(out.String(), "+20") {
		t.Fatalf("diff output:\n%s", out.String())
	}
}

// pr25Report is a run report as PR 25's emmatch wrote it (trace and
// provenance cut): its metrics carry the gauges and float_gauges kinds,
// both gone since.
const pr25Report = `{"name":"workflow.v","started_at":"2026-10-05T10:00:00Z","finished_at":"2026-10-05T10:00:01Z","outcome":"ok",` +
	`"metrics":{"counters":{"block.candset.ops":2,"block.pairs_blocked":1},"gauges":{"block.candidates":1},` +
	`"float_gauges":{"drift.coverage_drop":0,"drift.ks":0,"drift.match_rate_delta":0,"drift.null_rate":0,"drift.psi":0},` +
	`"histograms":{"workflow.stage_ms":{"bounds":[1,5],"counts":[7,0,0],"count":7,"sum":0.048139,"p50":0.5,"p90":0.9,"p99":0.99,"p999":0.020494,"max":0.020494}}}}`

// TestSnapshotHasTwoKinds pins the keys of a metrics snapshot — what a
// report's "metrics" section and /debug/vars' em_metrics are — and that a
// report written when there were four kinds still loads: diff compares
// its counters and histograms, the unknown keys are ignored.
func TestSnapshotHasTwoKinds(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c").Inc()
	reg.Histogram("h", []float64{1}).Observe(1)
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var kinds map[string]json.RawMessage
	if err := json.Unmarshal(data, &kinds); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds["counters"] == nil || kinds["histograms"] == nil {
		t.Fatalf("snapshot keys = %s, want counters, histograms", data)
	}

	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(pr25Report), 0o644); err != nil {
		t.Fatal(err)
	}
	now := &obs.Report{Name: "workflow.v", Outcome: "ok",
		Metrics: &obs.MetricsSnapshot{Counters: map[string]int64{"block.pairs_blocked": 4}}}
	cur := filepath.Join(dir, "now.json")
	writeReport(t, now, cur)
	var out, errOut strings.Builder
	if err := run([]string{"diff", old, cur}, &out, &errOut); err != nil {
		t.Fatalf("diff against a PR 25 report: %v", err)
	}
	if !strings.Contains(out.String(), "block.pairs_blocked") || !strings.Contains(out.String(), "+3") || !strings.Contains(out.String(), "workflow.stage_ms") {
		t.Fatalf("diff output:\n%s", out.String())
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
