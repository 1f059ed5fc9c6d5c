package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/obs"
)

// RunRecord is the -report -debug-addr flag set: what an operator keeps
// of a run. Start arms it, Finish writes it — on success and on failure
// alike, an aborted run being exactly when it is needed. The report is
// the run's one record: it carries the span tree (a workflow stage is its
// stage.<step> span, and each span's items count its work) and, from a
// monitored workflow run, the quality section with its drift profile.
type RunRecord struct {
	report, debugAddr string

	name           string
	stdout, stderr io.Writer
	started        time.Time
	root           *obs.Span
	dbg            *obs.DebugServer
}

// RunRecordFlags registers the flag set on fs; whether "-" may mean
// stdout is the binary's call, so it words -report itself.
func RunRecordFlags(fs *flag.FlagSet, reportUsage string) *RunRecord {
	r := &RunRecord{}
	fs.StringVar(&r.report, "report", "", reportUsage)
	fs.StringVar(&r.debugAddr, "debug-addr", "", "serve pprof (/debug/pprof/) and the standard expvars (/debug/vars) at this address during the run, e.g. :6060")
	return r
}

// CheckStdout refuses -report - while the binary's own output is going
// to stdout (taken; why says so in the binary's terms): stdout carries
// exactly one data document.
func (r *RunRecord) CheckStdout(taken bool, why string) error {
	if taken && r.report == "-" {
		return fmt.Errorf("-report - %s", why)
	}
	return nil
}

// Reporting reports whether -report names a destination.
func (r *RunRecord) Reporting() bool { return r.report != "" }

// Start arms what the flags ask for: the debug server, and — for a
// report — a root span called name that the pipeline's stage spans nest
// under. Finish ends what Start began.
func (r *RunRecord) Start(ctx context.Context, name string, stdout, stderr io.Writer) (context.Context, error) {
	r.name, r.stdout, r.stderr, r.started = name, stdout, stderr, time.Now()
	if r.debugAddr != "" {
		dbg, err := obs.StartDebugServer(ctx, r.debugAddr)
		if err != nil {
			return ctx, fmt.Errorf("debug server: %w", err)
		}
		r.dbg = dbg
		fmt.Fprintf(stderr, "%s: debug server on http://%s/debug/\n", name, dbg.Addr())
	}
	if r.report != "" {
		ctx, r.root = obs.NewTrace(ctx, name)
	}
	return ctx, nil
}

// Finish ends the root span, writes the report and stops the debug
// server. rep is the run's own report when the pipeline built one;
// without it the record is what the binary saw: ok, or aborted with
// runErr. It returns runErr, or — the run having succeeded — the error
// that kept the report from being written.
func (r *RunRecord) Finish(rep *obs.Report, runErr error) error {
	err := r.write(rep, runErr)
	if r.dbg != nil {
		r.dbg.Close()
	}
	if runErr == nil {
		return err
	}
	if err != nil {
		fmt.Fprintf(r.stderr, "%s: writing the run report: %v\n", r.name, err)
	}
	return runErr
}

// write ends the root span, gives it the report's outcome, and writes
// the report with the finished tree (a pipeline's own report snapshots
// the root before the run ends) to stdout for "-", or else to the path
// atomically, as every data output is written: a run killed mid-write
// leaves the previous report whole. The directory the path names must
// exist; a record is not worth making one.
func (r *RunRecord) write(rep *obs.Report, runErr error) error {
	if r.report == "" {
		return nil
	}
	r.root.End()
	if rep == nil {
		rep = obs.NewReport(r.name, r.started, r.root, runErr)
	}
	r.root.SetOutcome(rep.Outcome)
	rep.Trace = r.root.Snapshot()
	data, err := rep.Marshal()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if r.report == "-" {
		_, err := r.stdout.Write(data)
		return err
	}
	if _, err := os.Stat(filepath.Dir(r.report)); err != nil {
		return err
	}
	if err := ckpt.AtomicWriteFile(r.report, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(r.stderr, "%s: wrote run report to %s\n", r.name, r.report)
	return nil
}
