package cliutil

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"emgo/internal/leakcheck"
)

func TestSignalContextCancelsOnSIGTERM(t *testing.T) {
	leakcheck.Check(t)
	ctx, stop := SignalContext(context.Background())
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("SIGTERM did not cancel the context")
	}
	if !Interrupted(ctx, ctx.Err()) {
		t.Fatal("signal cancellation not reported as interrupted")
	}
}

func TestSignalContextStopWithoutSignal(t *testing.T) {
	leakcheck.Check(t)
	ctx, stop := SignalContext(context.Background())
	// No signal arrived: the run is not interrupted. (Callers must check
	// Interrupted before stop — stop itself cancels the context.)
	if Interrupted(ctx, nil) {
		t.Fatal("un-cancelled context reported interrupted")
	}
	stop()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("stop did not cancel the context")
	}
}

func TestInterrupted(t *testing.T) {
	live := context.Background()
	done, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		err  error
		want bool
	}{
		{"live ctx, no error", live, nil, false},
		{"live ctx, cancel-shaped error", live, context.Canceled, false},
		{"cancelled ctx, no error", done, nil, true},
		{"cancelled ctx, canceled error", done, context.Canceled, true},
		{"cancelled ctx, wrapped canceled", done, fmt.Errorf("stage: %w", context.Canceled), true},
		{"cancelled ctx, deadline error", done, context.DeadlineExceeded, true},
		{"cancelled ctx, unrelated error", done, errors.New("disk full"), false},
	}
	for _, tc := range cases {
		if got := Interrupted(tc.ctx, tc.err); got != tc.want {
			t.Errorf("%s: Interrupted = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMainExitCodes pins what every binary's main() relies on: the exit
// status per kind of outcome and the "name: error" stderr line.
func TestMainExitCodes(t *testing.T) {
	leakcheck.Check(t)
	breach := errors.New("quality degraded")
	breachIsOne := func(err error) int {
		if errors.Is(err, breach) {
			return 1
		}
		return 2
	}
	returning := func(err error) RunFunc {
		return func(context.Context, []string, io.Writer, io.Writer) error { return err }
	}
	// interrupted signals itself the way an operator's TERM would, waits
	// for the cancellation to reach it, and reports it as its error.
	interrupted := func(ctx context.Context, _ []string, _, _ io.Writer) error {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("stage: %w", ctx.Err())
		case <-time.After(2 * time.Second):
			return errors.New("SIGTERM did not cancel the run context")
		}
	}
	cases := []struct {
		name     string
		run      RunFunc
		classify func(error) int
		code     int
		stderr   string
	}{
		{"success", returning(nil), nil, 0, ""},
		{"wrong invocation", returning(flag.ErrHelp), nil, 2, ""},
		{"failure", returning(errors.New("disk full")), nil, 1, "emtest: disk full\n"},
		{"interrupt", interrupted, nil, ExitInterrupted, "emtest: stage: context canceled\n"},
		{"classified breach", returning(fmt.Errorf("check: %w", breach)), breachIsOne, 1, "emtest: check: quality degraded\n"},
		{"classified failure", returning(errors.New("no such file")), breachIsOne, 2, "emtest: no such file\n"},
		{"classified wrong invocation", returning(flag.ErrHelp), breachIsOne, 2, ""},
		{"classified interrupt", interrupted, breachIsOne, ExitInterrupted, "emtest: stage: context canceled\n"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		code := mainCode("emtest", tc.run, tc.classify, []string{"-x"}, &stdout, &stderr)
		if code != tc.code || stderr.String() != tc.stderr || stdout.Len() != 0 {
			t.Errorf("%s: exit %d, stderr %q, stdout %q; want exit %d, stderr %q, no stdout",
				tc.name, code, stderr.String(), stdout.String(), tc.code, tc.stderr)
		}
	}
}

// TestMainHandsTheSeamItsArguments: run gets the args and streams main
// was given, under a live context.
func TestMainHandsTheSeamItsArguments(t *testing.T) {
	leakcheck.Check(t)
	var stdout, stderr bytes.Buffer
	code := mainCode("emtest", func(ctx context.Context, args []string, out, errw io.Writer) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		fmt.Fprintf(out, "args=%v", args)
		fmt.Fprint(errw, "progress")
		return nil
	}, nil, []string{"-a", "b"}, &stdout, &stderr)
	if code != 0 || stdout.String() != "args=[-a b]" || stderr.String() != "progress" {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// TestWriteCSVReplacesTheFileAtomically: the new document is renamed
// over path, never written through it. A second name for the previous
// file's bytes (a hard link) still reads them after the overwrite, so a
// write that dies at any point before the rename leaves the previous
// file intact; no temp file survives a completed one.
func TestWriteCSVReplacesTheFileAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "labels.csv")
	if err := WriteCSV(path, []string{"left", "right"}, [][]string{{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	kept := filepath.Join(dir, "previous")
	if err := os.Link(path, kept); err != nil {
		t.Skipf("hard links unavailable: %v", err)
	}
	if err := WriteCSV(path, []string{"left", "right"}, [][]string{{"c", "d"}, {"e", "f"}}); err != nil {
		t.Fatal(err)
	}
	if prev, _ := os.ReadFile(kept); string(prev) != "left,right\na,b\n" {
		t.Fatalf("the overwrite wrote through the previous file: %q", prev)
	}
	if now, _ := os.ReadFile(path); string(now) != "left,right\nc,d\ne,f\n" {
		t.Fatalf("new file: %q", now)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Fatalf("temp file left behind: %v", entries)
	}
}
