package main

import (
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"emgo/internal/drift"
	"emgo/internal/obs"
	"emgo/internal/obs/history"
	"emgo/internal/obs/slo"
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
	if err := rep.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
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

func TestCheckUsesLatestHistoryRun(t *testing.T) {
	dir := t.TempDir()
	base, live := fixtureProfiles(t, false)
	basePath := filepath.Join(dir, "baseline.json")
	if err := base.WriteFile(basePath); err != nil {
		t.Fatal(err)
	}
	histDir := filepath.Join(dir, "history")
	store, err := history.Open(histDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(&obs.Report{Name: "older", Outcome: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := store.Append(&obs.Report{Name: "latest", Outcome: "ok", Quality: drift.CaptureQuality(live)}); err != nil {
		t.Fatal(err)
	}

	var out, errOut strings.Builder
	if err := run([]string{"check", "-baseline", basePath, "-dir", histDir}, &out, &errOut); err != nil {
		t.Fatalf("history check failed: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "run latest") {
		t.Fatalf("did not check the most recent run:\n%s", out.String())
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
	// instead verify a typoed threshold key is rejected.
	badTh := filepath.Join(dir, "th.json")
	if err := writeFile(badTh, `{"psi_wrn": 0.5}`); err != nil {
		t.Fatal(err)
	}
	runPath := writeRunReport(t, dir, live)
	var out, errOut strings.Builder
	err := run([]string{"check", "-baseline", basePath, "-run", runPath, "-thresholds", badTh}, &out, &errOut)
	if err == nil || errors.Is(err, errBreach) {
		t.Fatalf("typoed thresholds accepted: %v", err)
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
	if err := rep.WriteFile(runPath, nil); err != nil {
		t.Fatal(err)
	}
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
	if err := a.WriteFile(pa, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(pb, nil); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if err := run([]string{"diff", pa, pb}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ml.predictions") || !strings.Contains(out.String(), "+20") {
		t.Fatalf("diff output:\n%s", out.String())
	}
}

func TestHistorySubcommand(t *testing.T) {
	dir := t.TempDir()
	store, err := history.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"one", "two"} {
		rep := &obs.Report{Name: name, Outcome: "ok",
			StartedAt: time.Unix(10, 0), FinishedAt: time.Unix(11, 0),
			Quality: &obs.QualityData{Verdict: "ok"}}
		if err := store.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut strings.Builder
	if err := run([]string{"history", "-dir", dir}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"one", "two", "outcome", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("history output missing %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"history"}, &out, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("missing -dir: %v", err)
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
// its counters and histograms, history lists it, the unknown keys are
// ignored.
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
	if err := now.WriteFile(cur, nil); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if err := run([]string{"diff", old, cur}, &out, &errOut); err != nil {
		t.Fatalf("diff against a PR 25 report: %v", err)
	}
	if !strings.Contains(out.String(), "block.pairs_blocked") || !strings.Contains(out.String(), "+3") || !strings.Contains(out.String(), "workflow.stage_ms") {
		t.Fatalf("diff output:\n%s", out.String())
	}

	if err := os.WriteFile(filepath.Join(dir, history.FileName), []byte(pr25Report+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"history", "-dir", dir}, &out, &errOut); err != nil {
		t.Fatalf("history over a PR 25 report: %v", err)
	}
	if !strings.Contains(out.String(), "workflow.v") || strings.Contains(errOut.String(), "skipped") {
		t.Fatalf("history output:\n%s%s", out.String(), errOut.String())
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
}

// writeFile is a tiny test helper for literal fixtures.
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// sloFixture renders a status document whose SLO report has the given
// breach state.
func sloFixture(t *testing.T, dir string, breached bool) string {
	t.Helper()
	rep := &slo.Report{
		GeneratedAt:   time.Unix(100, 0),
		FastWindowMS:  300000,
		SlowWindowMS:  3600000,
		BurnThreshold: 14.4,
		Breached:      breached,
		Objectives: []slo.ObjectiveStatus{{
			Objective: slo.Objective{Name: "availability", Kind: slo.KindAvailability, Target: 99.9},
			FastBurn:  0.5, SlowBurn: 0.2, FastBad: 1, FastTotal: 200, SlowBad: 2, SlowTotal: 900,
		}},
	}
	if breached {
		o := &rep.Objectives[0]
		o.FastBurn, o.SlowBurn, o.Breached = 100, 100, true
	}
	data, err := json.Marshal(map[string]any{"ready": true, "slo": rep})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "status.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSLOHealthyFromFile(t *testing.T) {
	path := sloFixture(t, t.TempDir(), false)
	var out, errOut strings.Builder
	if err := run([]string{"slo", "-file", path}, &out, &errOut); err != nil {
		t.Fatalf("healthy slo: %v", err)
	}
	for _, want := range []string{"availability", "error budget holds"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("slo output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSLOBreachExitsOne(t *testing.T) {
	path := sloFixture(t, t.TempDir(), true)
	var out, errOut strings.Builder
	err := run([]string{"slo", "-file", path}, &out, &errOut)
	if !errors.Is(err, errBreach) {
		t.Fatalf("breached slo: want errBreach, got %v", err)
	}
	if !strings.Contains(err.Error(), "availability") {
		t.Fatalf("breach error does not name the objective: %v", err)
	}
}

func TestSLOFetchesFromURL(t *testing.T) {
	path := sloFixture(t, t.TempDir(), false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/status" {
			http.NotFound(w, r)
			return
		}
		w.Write(data)
	}))
	defer ts.Close()
	var out, errOut strings.Builder
	if err := run([]string{"slo", "-url", ts.URL}, &out, &errOut); err != nil {
		t.Fatalf("slo -url: %v", err)
	}
}

func TestSLOUsageAndBadInput(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"slo"}, &out, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("slo without flags: %v", err)
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"ready":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"slo", "-file", empty}, &out, &errOut); err == nil || errors.Is(err, errBreach) {
		t.Fatalf("status without slo section: want usage/IO error, got %v", err)
	}
}
