package umetrics

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
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

	path := filepath.Join(dir, sectionCkpt("labeling"))
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

// TestCountedSource pins the stream-position bookkeeping the resume
// logic depends on.
func TestCountedSource(t *testing.T) {
	a := newCountedSource(42)
	for i := 0; i < 10; i++ {
		a.Int63()
	}
	target := a.counts

	b := newCountedSource(42)
	if !b.canReach(target) {
		t.Fatal("fresh source must reach a pure-Int63 position")
	}
	b.ffwd(target)
	if a.Int63() != b.Int63() {
		t.Fatal("fast-forwarded stream diverges")
	}

	// A stream already past the target cannot rewind.
	c := newCountedSource(42)
	for i := 0; i < 20; i++ {
		c.Int63()
	}
	if c.canReach(target) {
		t.Fatal("cannot rewind a stream")
	}

	// Mixed-method deltas are ambiguous and must refuse.
	d := newCountedSource(42)
	mixed := rngCounts{Int63: 5, Uint64: 5}
	if d.canReach(mixed) {
		t.Fatal("interleaved draws must refuse fast-forward")
	}
	d.Int63()
	d.Uint64()
	if !d.canReach(rngCounts{Int63: 1, Uint64: 7}) {
		t.Fatal("single-method delta from a mixed position is replayable")
	}
}
