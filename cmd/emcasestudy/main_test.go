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
// small scale with -report and -trace, checking the stream discipline
// (report on stdout? no — files; human report on stdout; progress on
// stderr) and that the written artifacts parse.
func TestRunSmallScaleWithObservability(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "run.json")
	tracePath := filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "0.15", "-seed", "7",
		"-report", reportPath, "-trace", tracePath}, &stdout, &stderr)
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
	if rep.Trace == nil {
		t.Fatal("report has no trace")
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
	// The registry was armed, so the learning hot path must have ticked.
	if rep.Metrics == nil || rep.Metrics.Counters["ml.predictions"] < 1 {
		t.Fatalf("metrics missing or empty: %+v", rep.Metrics)
	}

	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(traceData), `"emcasestudy"`) {
		t.Fatalf("trace file: %.200s", traceData)
	}
}

// TestRunRefusesStdoutArtifacts: stdout is the text report's, so a
// report or trace directed at "-" is refused before anything runs.
func TestRunRefusesStdoutArtifacts(t *testing.T) {
	for _, flagName := range []string{"-report", "-trace"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-scale", "0.15", flagName, "-"}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), flagName+" - would share stdout") {
			t.Fatalf("%s -: err = %v, want a refusal", flagName, err)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%s -: wrote %d bytes to stdout before refusing", flagName, stdout.Len())
		}
	}
}

// TestRunCheckpointFlagsAreGone: a study is one pass, rerun rather than
// resumed, so the section checkpoint flags are usage errors.
func TestRunCheckpointFlagsAreGone(t *testing.T) {
	for _, extra := range [][]string{{"-checkpoint-dir", t.TempDir()}, {"-resume"}} {
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
// trace, its report (aborted, carrying the error) and its history row —
// through the code emmatch writes them with.
func TestRunAbortedStillWritesRecord(t *testing.T) {
	abortedRunRecord(t, "trace.json", true)
}

// TestRunAbortedBadTracePathKeepsTheRest: one unwritable destination
// costs that artifact only — the report file and the history row of the
// aborted run are still written, and the failure is named on stderr.
func TestRunAbortedBadTracePathKeepsTheRest(t *testing.T) {
	stderr := abortedRunRecord(t, filepath.Join("no-such-dir", "trace.json"), false)
	if !strings.Contains(stderr, "writing observability artifacts") || !strings.Contains(stderr, "no-such-dir") {
		t.Fatalf("the unwritable -trace path is not reported:\n%s", stderr)
	}
}

// abortedRunRecord runs a cancelled study with -report, -history and
// -trace (relative to a fresh directory), checks the report and the
// history row of the aborted run — and the trace when it is writable —
// and returns stderr.
func abortedRunRecord(t *testing.T, traceRel string, traceWritable bool) string {
	t.Helper()
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "run.json")
	tracePath := filepath.Join(dir, traceRel)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	err := runCtx(ctx, []string{"-scale", "0.15", "-report", reportPath, "-trace", tracePath,
		"-history", filepath.Join(dir, "runs")}, &stdout, &stderr)
	if err == nil {
		t.Fatal("a cancelled study must fail")
	}
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
	if _, serr := os.Stat(tracePath); (serr == nil) != traceWritable {
		t.Fatalf("trace written = %v, want %v (%v)", serr == nil, traceWritable, serr)
	}
	row, herr := os.ReadFile(filepath.Join(dir, "runs", "runs.jsonl"))
	if herr != nil || !bytes.Contains(row, []byte(`"outcome":"aborted"`)) {
		t.Fatalf("history row not appended (%v): %s", herr, row)
	}
	if !strings.Contains(stderr.String(), "appended run report to") {
		t.Fatalf("history row not announced:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("an aborted study printed a report:\n%.200s", stdout.String())
	}
	return stderr.String()
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
