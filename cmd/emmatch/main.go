// Command emmatch is the production matcher: it loads a packaged workflow
// spec (JSON, as produced by the development process — see
// examples/production), rebuilds the workflow against two CSV tables,
// deploys it over the right one, and writes the predicted matches. It is
// the "move it into the repository to do matching for other data slices"
// binary of Section 12, run under the hardened runtime: deadlines, an
// abort that names a failing pair, and a provenance log on stderr even
// when a stage aborts.
//
// Usage:
//
//	emmatch -spec workflow.json -left UMETRICSProjected.csv -right USDAProjected.csv \
//	        [-left-id RecordId] [-right-id RecordId] [-out matches.csv] [-transforms umetrics] \
//	        [-timeout 0] [-stage-timeout 0] \
//	        [-report run.json] [-trace trace.json] [-debug-addr :6060] \
//	        [-checkpoint-dir ckpt/ [-resume]] \
//	        [-drift-capture baseline.json | -drift-baseline baseline.json] [-history runs/]
//
// Crash safety: -checkpoint-dir persists each expensive stage's output
// (blocking, matching) durably as it completes; rerunning with -resume
// restores validated checkpoints instead of recomputing, so a killed run
// finishes from where it stopped. The store is fingerprinted by the spec
// bytes and both tables' contents — changed inputs discard it.
//
// The -transforms flag selects the registered transform set the spec's
// rules reference ("umetrics" or "none").
//
// Observability: -report writes the machine-readable run report
// (per-stage spans with durations and outcomes, hot-path counters,
// provenance log); -trace writes just the span tree; -debug-addr serves
// live expvar metrics (/debug/vars) and pprof (/debug/pprof/) for the
// duration of the run. Stream discipline: only data (the match CSV, or
// a report/trace directed at "-") goes to stdout; every diagnostic and
// progress line goes to stderr, so reports can be piped.
//
// Quality monitoring (see docs/OBSERVABILITY.md): -drift-capture
// profiles this run's inputs, features, candidates, and scores and
// writes the statistical baseline to the given path; -drift-baseline
// re-profiles the run and scores it against such a baseline (PSI, KS,
// null-rate / coverage / match-rate deltas), stamping the verdict into
// the run report — a breach marks the quality stage degraded_quality
// but never fails the run. -history appends the run report to an
// append-only JSONL directory that emmonitor check/diff/history reads.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"

	"emgo/internal/ckpt"
	"emgo/internal/cliutil"
	"emgo/internal/drift"
	"emgo/internal/obs"
	"emgo/internal/workflow"
)

// SIGINT/SIGTERM cancel the run context: stages stop at their next
// cancellation check, checkpoints and run reports flush on the way out,
// and the process reports the interrupt distinctly (130).
func main() { cliutil.Main("emmatch", runCtx) }

// run is runCtx without cancellation, kept as the testable seam.
func run(args []string, stdout, stderr io.Writer) error {
	return runCtx(context.Background(), args, stdout, stderr)
}

// runCtx is the whole program behind a testable seam. Any panic escaping
// the pipeline is recovered into a one-line diagnostic — a production
// binary must never greet the operator with a stack trace.
func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()

	fs := flag.NewFlagSet("emmatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dep := cliutil.DeploymentFlags(fs, "left table CSV", "right table CSV")
	leftID := fs.String("left-id", "RecordId", "left record-ID column for the output")
	rightID := fs.String("right-id", "RecordId", "right record-ID column for the output")
	out := fs.String("out", "", "output CSV (default: stdout)")
	timeout := fs.Duration("timeout", 0, "deadline for the whole run (0 = none)")
	stageTimeout := fs.Duration("stage-timeout", 0, "deadline per workflow stage (0 = none)")
	rec := cliutil.RunRecordFlags(fs,
		"write the run report JSON to this path ('-' = stdout)",
		"write the span trace tree JSON to this path ('-' = stdout)")
	ckpts := cliutil.CheckpointFlags(fs, "stage")
	driftCapture := fs.String("drift-capture", "", "profile this run and write the quality baseline JSON to this path")
	driftBaseline := fs.String("drift-baseline", "", "score this run's quality profile against the baseline at this path")
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp // the FlagSet already printed the diagnostic
	}

	if !dep.Complete() {
		fmt.Fprintln(stderr, "usage: emmatch -spec workflow.json -left a.csv -right b.csv")
		return flag.ErrHelp
	}
	// The match CSV defaults to stdout, so a report or trace may take it
	// over only when -out redirects the CSV to a file.
	if err := rec.CheckStdout(*out == "", "needs -out so the match CSV does not share stdout"); err != nil {
		return err
	}
	if err := ckpts.Check(); err != nil {
		return err
	}
	if *driftCapture != "" && *driftBaseline != "" {
		return fmt.Errorf("-drift-capture and -drift-baseline are mutually exclusive")
	}

	opts := workflow.RunOptions{StageTimeout: *stageTimeout}
	switch {
	case *driftCapture != "":
		// Capture mode: profile this run and persist the baseline.
		opts.Drift = &workflow.DriftStage{BaselinePath: *driftCapture}
	case *driftBaseline != "":
		base, err := drift.LoadProfile(*driftBaseline)
		if err != nil {
			return fmt.Errorf("drift baseline: %w", err)
		}
		opts.Drift = &workflow.DriftStage{Baseline: base}
	}

	if ctx, err = rec.Start(ctx, "emmatch", stdout, stderr); err != nil {
		return err
	}
	// The run proper: load what the flags name, open the checkpoint store
	// over exactly those inputs (the spec bytes and both tables'
	// contents), build the workflow and deploy it over the right table
	// (each reference column tokenised once for blockers and features
	// both, as umetrics.RunDeployed does), run it under the deadline.
	res, err := func() (*workflow.Result, error) {
		err := dep.Load()
		if err != nil {
			return nil, err
		}
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		opts.Checkpoints, err = ckpts.Open("emmatch", ckpt.Fingerprint(
			"emmatch", string(dep.SpecData), dep.Left.Fingerprint(), dep.Right.Fingerprint()), stderr)
		if err != nil {
			return nil, err
		}
		w, err := dep.Spec.Build(dep.Left, dep.Right, dep.Transforms)
		if err != nil {
			return nil, err
		}
		if w, err = w.Deploy(ctx, w.Matcher, dep.Right); err != nil {
			return nil, err
		}
		return w.RunCtx(ctx, dep.Left, dep.Right, opts)
	}()
	var rep *obs.Report
	if res != nil {
		if res.Log != nil {
			fmt.Fprintf(stderr, "%s", res.Log)
		}
		rep = res.Report
	}
	// A run that died before RunCtx could build a report (spec, table or
	// build errors) still leaves the abort record.
	if err := rec.Finish(rep, err); err != nil {
		return err
	}
	if res.Quality != nil {
		fmt.Fprintf(stderr, "emmatch: quality verdict %s (see emmonitor check for details)\n", res.Quality.Verdict)
	}

	ids, err := res.MatchIDs(*leftID, *rightID)
	if err != nil {
		return err
	}
	header := []string{*leftID, *rightID}
	rows := make([][]string, len(ids))
	for i, m := range ids {
		rows[i] = []string{m.Left, m.Right}
	}
	if *out != "" {
		err = cliutil.WriteCSV(*out, header, rows)
	} else {
		err = csv.NewWriter(stdout).WriteAll(append([][]string{header}, rows...))
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "emmatch: %d matches\n", len(ids))
	return nil
}
