package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emgo/internal/obs"
)

// TestRunSmallScaleWithObservability runs the whole case study at a
// small scale with -report, checking the stream discipline (report on
// stdout? no — a file; human report on stdout; progress on stderr) and
// that the written report parses.
func TestRunSmallScaleWithObservability(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "run.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "0.15", "-seed", "7",
		"-report", reportPath}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	// The human-readable report is the stdout data document.
	if !strings.Contains(stdout.String(), "Section 4 / Figure 2") {
		t.Fatalf("stdout does not look like the case-study report:\n%.400s", stdout.String())
	}
	// Diagnostics live on stderr.
	if !strings.Contains(stderr.String(), "wrote run report") {
		t.Fatalf("stderr: %s", stderr.String())
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Name != "emcasestudy" || rep.Outcome != obs.OutcomeOK {
		t.Fatalf("report header: name=%q outcome=%q error=%q", rep.Name, rep.Outcome, rep.Error)
	}
	if rep.Trace == nil || rep.Trace.Name != "emcasestudy" {
		t.Fatalf("report trace: %+v", rep.Trace)
	}
	sections := map[string]bool{}
	for _, c := range rep.Trace.Children {
		sections[c.Name] = true
	}
	for _, want := range []string{
		"casestudy.generate", "casestudy.blocking", "casestudy.matching",
	} {
		if !sections[want] {
			t.Fatalf("trace missing section span %s (have %v)", want, sections)
		}
	}
	// The learning hot path ran under the trace: its predict spans
	// count the vectors scored, and matcher selection and label
	// debugging the predictions their folds scored.
	items := map[string]int64{}
	var walk func(*obs.SpanData)
	walk = func(s *obs.SpanData) {
		items[s.Name] += s.Items
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(rep.Trace)
	for _, name := range []string{"ml.predict", "ml.cv", "ml.loocv"} {
		if items[name] < 1 {
			t.Errorf("%s spans carry %d items", name, items[name])
		}
	}
}

// TestRunRefusesStdoutArtifacts: stdout is the text report's, so a run
// report directed at "-" is refused before anything runs.
func TestRunRefusesStdoutArtifacts(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "0.15", "-report", "-"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-report - would share stdout") {
		t.Fatalf("-report -: err = %v, want a refusal", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("-report -: wrote %d bytes to stdout before refusing", stdout.Len())
	}
}

// TestRunCheckpointFlagsAreGone: a study is one pass, rerun rather than
// resumed, so the section checkpoint flags are usage errors; its one
// record is the -report file, so the run-history and trace-file flags
// are too.
func TestRunCheckpointFlagsAreGone(t *testing.T) {
	for _, extra := range [][]string{{"-checkpoint-dir", t.TempDir()}, {"-resume"},
		{"-history", t.TempDir()}, {"-trace", "trace.json"}} {
		var stdout, stderr bytes.Buffer
		if err := run(append([]string{"-scale", "0.15"}, extra...), &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%v: err = %v, want a usage error", extra, err)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: wrote %d bytes to stdout", extra, stdout.Len())
		}
	}
}

// TestRunAbortedStillWritesRecord: a study that dies still leaves its
// report — aborted, carrying the error, its span tree marked aborted too —
// through the code emmatch writes it with.
func TestRunAbortedStillWritesRecord(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "run.json")
	_, err := abortedRunRecord(t, reportPath)
	data, rerr := os.ReadFile(reportPath)
	if rerr != nil {
		t.Fatalf("failed run must still write the report: %v", rerr)
	}
	rep, perr := obs.ParseReport(data)
	if perr != nil {
		t.Fatal(perr)
	}
	if rep.Outcome != obs.OutcomeAborted || rep.Error != err.Error() {
		t.Fatalf("outcome=%q error=%q, want aborted with %q", rep.Outcome, rep.Error, err)
	}
	if rep.Trace == nil || rep.Trace.Outcome != obs.OutcomeAborted {
		t.Fatalf("report trace %+v, want the root span marked aborted", rep.Trace)
	}
}

// TestRunAbortedBadTracePathKeepsTheRest: an unwritable -report path is
// named on stderr, and the run's own error is what the study returns.
func TestRunAbortedBadTracePathKeepsTheRest(t *testing.T) {
	stderr, err := abortedRunRecord(t, filepath.Join(t.TempDir(), "no-such-dir", "run.json"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the run's own context.Canceled", err)
	}
	if !strings.Contains(stderr, "writing the run report") || !strings.Contains(stderr, "no-such-dir") {
		t.Fatalf("the unwritable -report path is not reported:\n%s", stderr)
	}
}

// abortedRunRecord runs a cancelled study with -report reportPath and
// returns its stderr and error, having checked that it failed and printed
// no text report.
func abortedRunRecord(t *testing.T, reportPath string) (string, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	err := runCtx(ctx, []string{"-scale", "0.15", "-report", reportPath}, &stdout, &stderr)
	if err == nil {
		t.Fatal("a cancelled study must fail")
	}
	if stdout.Len() != 0 {
		t.Fatalf("an aborted study printed a report:\n%.200s", stdout.String())
	}
	return stderr.String(), err
}

// TestStudyOutputsPinned pins the bytes a study at scale 0.3 writes — the
// text report on stdout and the -out, -labels and -spec files — at seeds
// 7 and 11. A refactor of the study or of a step it runs must leave every
// one unchanged; a change meant to move them records the new digests and
// says which numbers moved and why.
func TestStudyOutputsPinned(t *testing.T) {
	for _, c := range []struct {
		seed                      string
		stdout, out, labels, spec string
	}{
		{"7",
			"5ab823d07e326516a1fedad15dfff601f92a35234b4a79a0d65baf965df3acab",
			"b8d1a4c17e4da16d5d403746518b36098cdb2fea781289da96853c21fbd2600c",
			"1365e7813166641dd9b401f8ab26d7801def8eac6f2bc79449d6cb39654f6912",
			"293f444cf7b378f4f2419c746f7f42f6d1dd048f4dbda44e0192df5d43e3fb84"},
		{"11",
			"9bd33136cfc743e09620f9b2381287d3e927aa16c19ef896f25c2fe3e80bba58",
			"931b3ead809ffbc74028fa1bf0f07a90e68c302d79347a523845c4ac5b2c14a8",
			"6863d98c5805a69e0c3d5b1638cc29679b7ea5feff4dd19eb7e21220101bdb31",
			"85e5a741cd6906d9a2b2bffe553c75afff260f8e4d8bea189ce3f9ef9177e09f"},
	} {
		dir := t.TempDir()
		out, labels, spec := filepath.Join(dir, "m.csv"), filepath.Join(dir, "l.csv"), filepath.Join(dir, "s.json")
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-scale", "0.3", "-seed", c.seed,
			"-out", out, "-labels", labels, "-spec", spec}, &stdout, &stderr); err != nil {
			t.Fatalf("seed %s: %v\nstderr: %s", c.seed, err, stderr.String())
		}
		for _, f := range []struct{ name, path, want string }{
			{"stdout", "", c.stdout}, {"-out", out, c.out}, {"-labels", labels, c.labels}, {"-spec", spec, c.spec},
		} {
			data := stdout.Bytes()
			if f.path != "" {
				var err error
				if data, err = os.ReadFile(f.path); err != nil {
					t.Fatal(err)
				}
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != f.want {
				t.Errorf("seed %s: %s sha256 %s, want %s", c.seed, f.name, got, f.want)
			}
		}
	}
}
