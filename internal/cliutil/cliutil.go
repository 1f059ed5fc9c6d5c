// Package cliutil is the kit under the repo's binaries: what more than
// one of them does, written once. Main is main(): every CLI works under
// a context cancelled by SIGINT/SIGTERM, so an operator's Ctrl-C (or a
// supervisor's TERM) stops stages at their next cancellation check,
// lets checkpoints and run reports flush, and exits with the interrupted
// status instead of dying mid-write. Deployment loads a packaged
// workflow and its two tables (emmatch, emserve); RunRecord and
// Checkpoints are the observability and crash-safety flags of the
// binaries that run a pipeline to completion (emmatch, emcasestudy).
package cliutil

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"emgo/internal/ckpt"
)

// RunFunc is a binary's whole program behind its testable seam.
type RunFunc func(ctx context.Context, args []string, stdout, stderr io.Writer) error

// Main is a binary's main(): it runs run under the signal context and
// exits 0 on success, 2 on a wrong invocation (flag.ErrHelp — the FlagSet
// already printed the diagnostic) and, after a "name: error" line on
// stderr, ExitInterrupted when a signal stopped the run, else 1.
func Main(name string, run RunFunc) { MainCodes(name, run, nil) }

// MainCodes is Main for a binary whose failures do not all exit 1:
// classify picks the status of an error that is neither a wrong
// invocation nor an interrupt.
func MainCodes(name string, run RunFunc, classify func(error) int) {
	os.Exit(mainCode(name, run, classify, os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(name string, run RunFunc, classify func(error) int, args []string, stdout, stderr io.Writer) int {
	ctx, stop := SignalContext(context.Background())
	err := run(ctx, args, stdout, stderr)
	interrupted := Interrupted(ctx, err)
	stop()
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	if interrupted {
		return ExitInterrupted
	}
	if classify == nil {
		return 1
	}
	return classify(err)
}

// ExitInterrupted is the exit status for a run stopped by SIGINT or
// SIGTERM after flushing its state (128+SIGINT, the shell convention —
// distinct from 1 "the run failed" and 2 "the invocation was wrong").
const ExitInterrupted = 130

// SignalContext derives a context cancelled on SIGINT or SIGTERM. The
// first signal cancels ctx and lets the program wind down gracefully; a
// second signal restores default handling, so an operator's repeated
// Ctrl-C still force-kills a wedged shutdown. The returned stop releases
// the signal registration.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	// Once cancelled (first signal or parent cancellation), drop the
	// registration so the next signal gets default handling.
	context.AfterFunc(ctx, stop)
	return ctx, stop
}

// Interrupted reports whether a run's failure was the operator's
// interrupt rather than the program's fault: the signal context was
// cancelled and the error (if any) is cancellation-shaped. Callers map
// this to ExitInterrupted.
func Interrupted(ctx context.Context, err error) bool {
	if ctx.Err() == nil {
		return false
	}
	return err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// WriteCSV writes header and rows to path atomically (temp file, fsync,
// rename): a run killed or failing mid-write leaves the previous file,
// never a torn one.
func WriteCSV(path string, header []string, rows [][]string) error {
	return ckpt.AtomicWriteTo(path, 0o644, func(w io.Writer) error {
		return csv.NewWriter(w).WriteAll(append([][]string{header}, rows...)) // flushes
	})
}
