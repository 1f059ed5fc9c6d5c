package cliutil

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/obs"
	"emgo/internal/obs/history"
)

// RunRecord is the -report -trace -debug-addr -history flag set: what an
// operator keeps of a run. Start arms it, Finish writes it — on success
// and on failure alike, an aborted run being exactly when it is needed.
type RunRecord struct {
	report, trace, debugAddr, history string

	name           string
	stdout, stderr io.Writer
	started        time.Time
	root           *obs.Span
	dbg            *obs.DebugServer
}

// RunRecordFlags registers the flag set on fs; whether "-" may mean
// stdout is the binary's call, so it words -report and -trace itself.
func RunRecordFlags(fs *flag.FlagSet, reportUsage, traceUsage string) *RunRecord {
	r := &RunRecord{}
	fs.StringVar(&r.report, "report", "", reportUsage)
	fs.StringVar(&r.trace, "trace", "", traceUsage)
	fs.StringVar(&r.debugAddr, "debug-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) at this address during the run, e.g. :6060")
	fs.StringVar(&r.history, "history", "", "append the run report to this run-history directory (for emmonitor)")
	return r
}

// CheckStdout refuses a "-" destination that would share stdout, which
// carries exactly one data document: neither report nor trace while the
// binary's own output is going there (taken; why says so in the binary's
// terms), and never both.
func (r *RunRecord) CheckStdout(taken bool, why string) error {
	switch {
	case taken && r.report == "-":
		return fmt.Errorf("-report - %s", why)
	case taken && r.trace == "-":
		return fmt.Errorf("-trace - %s", why)
	case r.report == "-" && r.trace == "-":
		return fmt.Errorf("-report and -trace cannot both write to stdout")
	}
	return nil
}

// Start arms what the flags ask for: the metrics registry when any is
// set (so hot-path counters tick for this run), the debug server, and —
// for a report, trace or history row — a root span called name that the
// pipeline's stage spans nest under. Finish ends what Start began.
func (r *RunRecord) Start(ctx context.Context, name string, stdout, stderr io.Writer) (context.Context, error) {
	r.name, r.stdout, r.stderr, r.started = name, stdout, stderr, time.Now()
	if r.report != "" || r.trace != "" || r.debugAddr != "" || r.history != "" {
		obs.Enable()
	}
	if r.debugAddr != "" {
		dbg, err := obs.StartDebugServer(ctx, r.debugAddr)
		if err != nil {
			return ctx, fmt.Errorf("debug server: %w", err)
		}
		r.dbg = dbg
		fmt.Fprintf(stderr, "%s: debug server on http://%s/debug/\n", name, dbg.Addr())
	}
	if r.report != "" || r.trace != "" || r.history != "" {
		ctx, r.root = obs.NewTrace(ctx, name)
	}
	return ctx, nil
}

// Finish ends the root span, writes the trace, the report and the
// history row, and stops the debug server. rep is the run's own report
// when the pipeline built one; without it the record is what the binary
// saw: ok, or aborted with runErr. It returns runErr, or — the run
// having succeeded — the error that kept an artifact from being written.
func (r *RunRecord) Finish(rep *obs.Report, runErr error) error {
	err := r.write(rep, runErr)
	if r.dbg != nil {
		r.dbg.Close()
	}
	if runErr == nil {
		return err
	}
	if err != nil {
		fmt.Fprintf(r.stderr, "%s: writing observability artifacts: %v\n", r.name, err)
	}
	return runErr
}

// write attempts every artifact the flags name and joins the failures:
// a bad -trace path must not cost the report and the history row.
func (r *RunRecord) write(rep *obs.Report, runErr error) error {
	r.root.End()
	var errs []error
	if r.trace != "" {
		snap := r.root.Snapshot()
		errs = append(errs, r.writeDoc(r.trace, "trace", func() ([]byte, error) { return json.MarshalIndent(snap, "", "  ") }))
	}
	if rep == nil && (r.report != "" || r.history != "") {
		rep = obs.NewReport(r.name, r.started, r.root, runErr)
	}
	if r.report != "" {
		errs = append(errs, r.writeDoc(r.report, "run report", rep.Marshal))
	}
	if r.history != "" {
		store, err := history.Open(r.history)
		if err == nil {
			err = store.Append(rep)
		}
		if err == nil {
			fmt.Fprintf(r.stderr, "%s: appended run report to %s\n", r.name, store.Path())
		}
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// writeDoc writes the JSON document marshal renders, and a newline, to
// stdout for "-", or else to path atomically, as every data output is
// written: a run killed mid-write leaves the previous document whole. The
// directory path names must exist; a record is not worth making one.
func (r *RunRecord) writeDoc(path, what string, marshal func() ([]byte, error)) error {
	data, err := marshal()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := r.stdout.Write(data)
		return err
	}
	if _, err := os.Stat(filepath.Dir(path)); err != nil {
		return err
	}
	if err := ckpt.AtomicWriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(r.stderr, "%s: wrote %s to %s\n", r.name, what, path)
	return nil
}
