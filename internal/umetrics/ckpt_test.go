package umetrics

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"emgo/internal/ckpt"
)

// studyTestConfig is the shared small-scale configuration; the golden
// report is computed once per test binary because a full study run is
// the expensive part of every resume test.
func studyTestConfig() Config { return TestConfig(0.15) }

var goldenReport *Report

func golden(t *testing.T) *Report {
	t.Helper()
	if testing.Short() {
		t.Skip("expensive; skipped with -short")
	}
	if goldenReport == nil {
		rep, err := Run(studyTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		goldenReport = rep
	}
	return goldenReport
}

func openStudyStore(t *testing.T, dir string) *ckpt.Store {
	t.Helper()
	store, err := ckpt.Open(dir, studyTestConfig().Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// reportsEqual compares two reports field by field so a failure names
// the diverging section instead of dumping two multi-KB structs.
func reportsEqual(t *testing.T, want, got *Report, context string) {
	t.Helper()
	wv := reflect.ValueOf(*want)
	gv := reflect.ValueOf(*got)
	for i := 0; i < wv.NumField(); i++ {
		name := wv.Type().Field(i).Name
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("%s: report field %s diverges", context, name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestCaseStudyResumeEquivalence kills the study (via the haltAfter
// hook) right after each checkpointed section in turn, resumes it from
// the store, and asserts the resumed run's report is deeply identical
// to an uncheckpointed golden run — the tentpole property: a crash plus
// a resume is indistinguishable from a run that never crashed.
func TestCaseStudyResumeEquivalence(t *testing.T) {
	want := golden(t)
	for _, section := range []string{"blocking", "labeling", "matching", "updating", "estimating"} {
		t.Run(section, func(t *testing.T) {
			dir := t.TempDir()

			halted := studyTestConfig()
			halted.Checkpoints = openStudyStore(t, dir)
			halted.haltAfter = section
			if _, err := Run(halted); !errors.Is(err, errHalted) {
				t.Fatalf("halted run: err = %v, want errHalted", err)
			}

			// A fresh store handle simulates the restarted process.
			resumed := studyTestConfig()
			resumed.Checkpoints = openStudyStore(t, dir)
			got, err := Run(resumed)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, want, got, "resume after "+section)
		})
	}
}

// TestCaseStudyResumeFullStore resumes from a store holding every
// section checkpoint: only generate/preprocess/refining recompute, and
// the report still matches the golden run exactly.
func TestCaseStudyResumeFullStore(t *testing.T) {
	want := golden(t)
	dir := t.TempDir()

	full := studyTestConfig()
	full.Checkpoints = openStudyStore(t, dir)
	first, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, want, first, "checkpointed run")

	again := studyTestConfig()
	again.Checkpoints = openStudyStore(t, dir)
	got, err := Run(again)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, want, got, "full-store resume")
}

// TestCaseStudyResumeCorruptArtifact flips bytes in one checkpoint on
// disk: the resumed run must quarantine it, recompute that section, and
// still converge to the golden report.
func TestCaseStudyResumeCorruptArtifact(t *testing.T) {
	want := golden(t)
	dir := t.TempDir()

	full := studyTestConfig()
	full.Checkpoints = openStudyStore(t, dir)
	if _, err := Run(full); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "study.labeling.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := studyTestConfig()
	resumed.Checkpoints = openStudyStore(t, dir)
	got, err := Run(resumed)
	if err != nil {
		t.Fatalf("corrupt checkpoint must fall back to recomputing: %v", err)
	}
	reportsEqual(t, want, got, "resume with corrupt labeling artifact")

	entries, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("corrupt artifact not quarantined: %v (%d entries)", err, len(entries))
	}
}

// TestCaseStudyFingerprintInvalidatesStore reopens the store under a
// changed Config fingerprint: every checkpoint is discarded and the run
// recomputes from scratch rather than resuming foreign state.
func TestCaseStudyFingerprintInvalidatesStore(t *testing.T) {
	want := golden(t)
	dir := t.TempDir()

	full := studyTestConfig()
	full.Checkpoints = openStudyStore(t, dir)
	if _, err := Run(full); err != nil {
		t.Fatal(err)
	}

	changed := studyTestConfig()
	changed.Seed++
	store, err := ckpt.Open(dir, changed.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if store.Discarded() == "" {
		t.Fatal("fingerprint change must discard the old manifest")
	}
	if len(store.Names()) != 0 {
		t.Fatalf("foreign checkpoints still visible: %v", store.Names())
	}
	if changed.Fingerprint() == studyTestConfig().Fingerprint() {
		t.Fatal("seed change must change the fingerprint")
	}

	// And the original config still reproduces golden from the now-empty
	// store.
	fresh := studyTestConfig()
	fresh.Checkpoints = store
	got, err := Run(fresh)
	if err != nil {
		t.Fatal(err)
	}
	_ = want
	if got.FinalMatches != want.FinalMatches || len(got.Matches) != len(want.Matches) {
		t.Fatal("recomputed run diverges from golden")
	}
}

// TestConfigFingerprintGolden pins the fingerprint of the study's test
// configuration: a store opens only under the text it was written with,
// so a change to Config or to the expert's noise rates that moves it
// orphans every existing store.
func TestConfigFingerprintGolden(t *testing.T) {
	const want = "15c2d5df7919d82175dc30cb013f34cad55c1e7d0791808286ebc7a672f5cdfe"
	if got := studyTestConfig().Fingerprint(); got != want {
		t.Fatalf("fingerprint %s, want %s", got, want)
	}
}

// TestGoldenSectionArtifactKeys pins the shape of the study's store: the
// five artifact names and the top-level keys each carries (the common
// envelope plus the section's own state). The byte-level guard is the
// resume equivalence above and TestSmoke/chaos; this one fails when a
// field is renamed or moves between sections, which an old store on disk
// would not survive.
func TestGoldenSectionArtifactKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a study; skipped with -short")
	}
	dir := t.TempDir()
	cfg := studyTestConfig()
	cfg.Checkpoints = openStudyStore(t, dir)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"study.blocking.json":   "cand report section",
		"study.labeling.json":   "labels report section",
		"study.matching.json":   "fig8 report section",
		"study.updating.json":   "report res1 res2 section winner",
		"study.estimating.json": "eval iris1 iris2 report section",
	}
	names := openStudyStore(t, dir).Names()
	if len(names) != len(want) {
		t.Fatalf("store holds %v, want the five section artifacts", names)
	}
	for name, keys := range want {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(raw, &top); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []string
		for k := range top {
			got = append(got, k)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != keys {
			t.Errorf("%s keys = %v, want %s", name, got, keys)
		}
	}
}

// TestSectionValidator is the one thing the study brings to the durable
// step — restore, its validator — over both verdicts it can give: it
// condemns an artifact that is another section's or indexes outside the
// replayed tables, and on accepting installs the state and the report. A
// refused artifact leaves the study untouched.
func TestSectionValidator(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a slice; skipped with -short")
	}
	s := &study{cfg: studyTestConfig(), report: &Report{}}
	if err := s.generate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.preprocess(context.Background()); err != nil {
		t.Fatal(err)
	}
	row := func(name string) *section {
		for i := range sections {
			if sections[i].name == name {
				return &sections[i]
			}
		}
		t.Fatalf("no section %q", name)
		return nil
	}
	huge := [2]int{1 << 30, 0}
	okRes := &resultArt{}
	rep := func() *Report { return &Report{FinalMatches: 7} }
	condemned := []struct {
		what, section string
		art           sectionArt
	}{
		{"another section's artifact", "blocking", sectionArt{Section: "labeling", Report: rep(), Cand: [][2]int{{0, 0}}}},
		{"no report", "blocking", sectionArt{Section: "blocking", Cand: [][2]int{{0, 0}}}},
		{"candidate outside the tables", "blocking", sectionArt{Section: "blocking", Report: rep(), Cand: [][2]int{huge}}},
		{"label outside the vocabulary", "labeling", sectionArt{Section: "labeling", Report: rep(), Labels: []labelArt{{Pair: [2]int{0, 0}, Label: 9}}}},
		{"result missing", "matching", sectionArt{Section: "matching", Report: rep()}},
		{"unknown CV winner", "updating", sectionArt{Section: "updating", Report: rep(), Winner: "no-such-learner", Res1: okRes, Res2: okRes}},
		{"eval slice out of range", "estimating", sectionArt{Section: "estimating", Report: rep(), Eval: []evalArt{{Slice: 2}}}},
	}
	for _, tc := range condemned {
		if err := s.restore(row(tc.section), &tc.art); err == nil {
			t.Errorf("%s: accepted, want a condemning error", tc.what)
		}
	}
	if s.cand != nil || s.labels != nil || s.fig8 != nil || s.winner != "" || s.eval != nil || s.report.FinalMatches != 0 {
		t.Fatal("a refused artifact touched the study")
	}

	sound := sectionArt{Section: "blocking", Report: rep(), Cand: [][2]int{{0, 0}}}
	if err := s.restore(row("blocking"), &sound); err != nil {
		t.Fatalf("sound artifact refused: %v", err)
	}
	if s.cand == nil || s.cand.Len() != 1 || s.report.FinalMatches != 7 {
		t.Fatalf("accepted artifact not installed: cand=%v report=%+v", s.cand, s.report.FinalMatches)
	}
}
