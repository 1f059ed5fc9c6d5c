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
// with EMCKPT_KILL armed mid-write of the run report, then of the trace:
// each kill leaves the previous document whole, not a torn one. A run that
// lives replaces both, and its report parses back to the one it was
// handed, with no temp file left beside it.
func TestRunRecordWritesReportAndTraceAtomically(t *testing.T) {
	if spec := os.Getenv("EMCKPT_KILL"); spec != "" {
		recordChild() // never returns
	}
	const previous = "{\"previous\": true}\n"
	for _, name := range []string{"report.json", "trace.json"} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(previous), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestRunRecordWritesReportAndTraceAtomically$")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "EMCKPT_KILL=mid:"+name)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || !strings.Contains(string(out), "chaos kill at mid:"+name) {
			t.Fatalf("%s: the child was not killed mid-write (%v):\n%s", name, err, out)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != previous {
			t.Fatalf("%s after a kill mid-write holds %q (%v), want the previous document", name, got, err)
		}
	}

	defer obs.Disable()
	dir := t.TempDir()
	report, trace := filepath.Join(dir, "report.json"), filepath.Join(dir, "trace.json")
	for _, path := range []string{report, trace} {
		if err := os.WriteFile(path, []byte(previous), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := runRecord(report, trace); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := obs.ParseReport(data); err != nil || got.Name != "x" || got.Outcome != "ok" {
		t.Fatalf("report %+v (%v), want the one handed to Finish", got, err)
	}
	if data, err := os.ReadFile(trace); err != nil || string(data) == previous {
		t.Fatalf("trace %q (%v), want the run's span tree", data, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("the directory holds %v, want the report and the trace only", entries)
	}
}

// runRecord is one run's record: Start, then Finish with a report.
func runRecord(report, trace string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	r := RunRecordFlags(fs, "", "")
	if err := fs.Parse([]string{"-report", report, "-trace", trace}); err != nil {
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
	if err := runRecord("report.json", "trace.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}
