package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"emgo/internal/obs"
)

// TestRunRecordWritesReportAndTraceAtomically re-executes the test binary
// with EMCKPT_KILL armed mid-write of the run report, which carries the
// run's span tree: the kill leaves the previous document whole, not a
// torn one. A run that lives replaces it, and its report parses back to
// the one it was handed, with the finished tree as its trace and no temp
// file left beside it.
func TestRunRecordWritesReportAndTraceAtomically(t *testing.T) {
	if spec := os.Getenv("EMCKPT_KILL"); spec != "" {
		recordChild() // never returns
	}
	const previous = "{\"previous\": true}\n"
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	if err := os.WriteFile(report, []byte(previous), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRunRecordWritesReportAndTraceAtomically$")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "EMCKPT_KILL=mid:report.json")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || !strings.Contains(string(out), "chaos kill at mid:report.json") {
		t.Fatalf("the child was not killed mid-write (%v):\n%s", err, out)
	}
	if got, err := os.ReadFile(report); err != nil || string(got) != previous {
		t.Fatalf("report.json after a kill mid-write holds %q (%v), want the previous document", got, err)
	}

	dir = t.TempDir()
	report = filepath.Join(dir, "report.json")
	if err := os.WriteFile(report, []byte(previous), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runRecord(report); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obs.ParseReport(data)
	if err != nil || got.Name != "x" || got.Outcome != "ok" {
		t.Fatalf("report %+v (%v), want the one handed to Finish", got, err)
	}
	if got.Trace == nil || got.Trace.Name != "x" {
		t.Fatalf("report trace %+v, want the run's root span", got.Trace)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("the directory holds %v, want the report only", entries)
	}
}

// runRecord is one run's record: Start, then Finish with a report.
func runRecord(report string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	r := RunRecordFlags(fs, "")
	if err := fs.Parse([]string{"-report", report}); err != nil {
		return err
	}
	if _, err := r.Start(context.Background(), "x", io.Discard, io.Discard); err != nil {
		return err
	}
	return r.Finish(&obs.Report{Name: "x", Outcome: "ok"}, nil)
}

// recordChild is the re-executed process: it writes a run's record in its
// working directory and exits 0 if it lives.
func recordChild() {
	if err := runRecord("report.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}
