package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emgo/internal/drift"
	"emgo/internal/obs"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const tinySpec = `{
  "name": "tiny",
  "blockers": [{"type": "attr_equiv", "left_col": "Num", "right_col": "Num"}],
  "sure_rules": [{"type": "equal", "name": "M1", "left_col": "Num", "right_col": "Num",
                  "verdict": "match"}]
}`

const leftCSV = "RecordId,Num\nL1,A100\nL2,B200\n"
const rightCSV = "RecordId,Num\nR1,A100\nR2,C300\n"

func TestRunHappyPath(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", tinySpec)
	left := writeFile(t, dir, "left.csv", leftCSV)
	right := writeFile(t, dir, "right.csv", rightCSV)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right, "-transforms", "none"},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "L1,R1") {
		t.Fatalf("expected match L1,R1 in output:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "1 matches") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestRunTimeoutAborts: -timeout is the run's one deadline, and a run
// that meets it fails with the deadline as its cause.
func TestRunTimeoutAborts(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", tinySpec)
	left := writeFile(t, dir, "left.csv", leftCSV)
	right := writeFile(t, dir, "right.csv", rightCSV)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right, "-transforms", "none", "-timeout", "1ns"},
		&stdout, &stderr)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded\nstderr: %s", err, stderr.String())
	}
}

// TestRunCheckpointAndStageTimeoutFlagsAreGone: a deployed run is one
// pass under one deadline, so the stage checkpoint and per-stage deadline
// flags are usage errors; its one record is the -report file, so the
// run-history and trace-file flags are too; and emmonitor check is the
// one judge of its quality, so an old line that asked emmatch to check
// against a baseline fails instead of silently skipping the check.
func TestRunCheckpointAndStageTimeoutFlagsAreGone(t *testing.T) {
	for _, extra := range [][]string{{"-checkpoint-dir", t.TempDir()}, {"-resume"}, {"-stage-timeout", "1s"},
		{"-history", t.TempDir()}, {"-trace", "trace.json"}, {"-drift-baseline", "b.json"}} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-spec", "s.json", "-left", "l.csv", "-right", "r.csv"}, extra...)
		if err := run(args, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%v: err = %v, want a usage error", extra, err)
		}
	}
}

func TestRunMalformedCSVIsOneLineError(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", tinySpec)
	// Unclosed quote: encoding/csv rejects this mid-file.
	bad := writeFile(t, dir, "bad.csv", "RecordId,Num\nL1,\"A100\nL2,B200\n")
	right := writeFile(t, dir, "right.csv", rightCSV)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", bad, "-right", right, "-transforms", "none"},
		&stdout, &stderr)
	if err == nil {
		t.Fatal("malformed CSV must fail")
	}
	// The diagnostic is a single line naming the file, never a stack trace.
	msg := err.Error()
	if strings.Contains(msg, "\n") || strings.Contains(msg, "goroutine") {
		t.Fatalf("diagnostic is not one line: %q", msg)
	}
	if !strings.Contains(msg, "bad.csv") {
		t.Fatalf("diagnostic does not name the file: %q", msg)
	}
}

func TestRunMissingFlagsIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(nil, &stdout, &stderr)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("err: %v", err)
	}
	if !strings.Contains(stderr.String(), "usage:") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

func TestRunUnknownTransformSet(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", tinySpec)
	left := writeFile(t, dir, "left.csv", leftCSV)
	right := writeFile(t, dir, "right.csv", rightCSV)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right, "-transforms", "nope"},
		&stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown transform set") {
		t.Fatalf("err: %v", err)
	}
}

func TestRunSpecReferencingMissingTransform(t *testing.T) {
	// A spec whose rules name a transform absent from the registry must
	// surface the resolver's error, not a panic.
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", `{
	  "name": "t",
	  "blockers": [{"type": "attr_equiv", "left_col": "Num", "right_col": "Num",
	                "left_transform": "missing"}]
	}`)
	left := writeFile(t, dir, "left.csv", leftCSV)
	right := writeFile(t, dir, "right.csv", rightCSV)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right, "-transforms", "none"},
		&stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown transform") {
		t.Fatalf("err: %v", err)
	}
}

// TestRunDriftCaptureThenCheckAndHistory: each run's -report is its
// record, and a captured one carries the profile; two captures of the
// same slice, judged as emmonitor check judges them, are verdict ok.
func TestRunDriftCaptureThenCheckAndHistory(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", tinySpec)
	left := writeFile(t, dir, "left.csv", leftCSV)
	right := writeFile(t, dir, "right.csv", rightCSV)

	var profiles []*drift.Profile
	for _, name := range []string{"run1", "run2"} {
		path := filepath.Join(dir, name+".json")
		var stdout, stderr bytes.Buffer
		err := run([]string{"-spec", spec, "-left", left, "-right", right, "-transforms", "none",
			"-out", filepath.Join(dir, name+".csv"), "-drift-capture", "-report", path},
			&stdout, &stderr)
		if err != nil {
			t.Fatalf("%s: %v\nstderr: %s", name, err, stderr.String())
		}
		if strings.Contains(stderr.String(), "verdict") {
			t.Fatalf("%s: a run judged its own quality:\n%s", name, stderr.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("report not written: %v", err)
		}
		rep, err := obs.ParseReport(data)
		if err != nil {
			t.Fatal(err)
		}
		p, err := drift.ProfileFromQuality(rep.Quality)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		profiles = append(profiles, p)
	}
	asmt, err := drift.Evaluate(profiles[0], profiles[1], drift.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if asmt.Verdict != drift.StatusOK {
		t.Fatalf("the same slice twice scored %q: %+v", asmt.Verdict, asmt.Signals)
	}
}

// TestRunDriftCaptureNeedsReport: a capture's profile has one home, the
// run report, so -drift-capture without -report is a wrong invocation.
func TestRunDriftCaptureNeedsReport(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", tinySpec)
	left := writeFile(t, dir, "left.csv", leftCSV)
	right := writeFile(t, dir, "right.csv", rightCSV)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right, "-transforms", "none",
		"-drift-capture"}, &stdout, &stderr)
	if !errors.Is(err, flag.ErrHelp) || !strings.Contains(stderr.String(), "-drift-capture needs -report") {
		t.Fatalf("err = %v, stderr = %q; want a usage error (exit 2) naming -report", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("a refused run wrote output: %q", stdout.String())
	}
}

// TestRunRefusesStrayArguments: flag parsing stops at the first
// positional argument, so an old "-drift-capture baseline.json" line
// would drop every flag after it; it is a usage error instead.
func TestRunRefusesStrayArguments(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", tinySpec)
	left := writeFile(t, dir, "left.csv", leftCSV)
	right := writeFile(t, dir, "right.csv", rightCSV)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right, "-transforms", "none",
		"-drift-capture", "baseline.json", "-report", filepath.Join(dir, "run.json")}, &stdout, &stderr)
	if !errors.Is(err, flag.ErrHelp) || !strings.Contains(stderr.String(), `unexpected argument "baseline.json"`) {
		t.Fatalf("err = %v, stderr = %q; want a usage error (exit 2) naming the argument", err, stderr.String())
	}
}
