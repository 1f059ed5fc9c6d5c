package main

import (
	"bytes"
	"context"
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
