// Command emmatch is the production matcher: it loads a packaged workflow
// spec (JSON, as produced by the development process — see
// examples/production), rebuilds the workflow against two CSV tables,
// deploys it over the right one, and writes the predicted matches. It is
// the "move it into the repository to do matching for other data slices"
// binary of Section 12, run under the hardened runtime: one deadline for
// the whole run (-timeout), an abort that names a failing pair, and the
// run's stages (step, items, outcome) on stderr even when one aborts.
//
// Usage:
//
//	emmatch -spec workflow.json -left UMETRICSProjected.csv -right USDAProjected.csv \
//	        [-left-id RecordId] [-right-id RecordId] [-out matches.csv] [-transforms umetrics] \
//	        [-timeout 0] [-report run.json] [-debug-addr :6060] \
//	        [-drift-capture]
//
// A run is one pass: a killed or failed run is rerun from the start.
// With -out the match CSV is written atomically, so it is never torn.
//
// The -transforms flag selects the registered transform set the spec's
// rules reference ("umetrics" or "none").
//
// Observability: -report writes the machine-readable run report, the
// run's one record (the span tree with per-stage durations, items and
// outcomes — each blocker's block.join, the feature.vectorize and
// ml.predict passes counting their pairs — and, with -drift-capture,
// the quality section);
// -debug-addr serves pprof (/debug/pprof/) and the standard expvars
// (/debug/vars) for the duration of the run. Stream discipline: only
// data (the match CSV, or a report directed at "-") goes to stdout;
// every diagnostic and progress line goes to stderr, so reports can be
// piped.
//
// Quality monitoring (docs/OBSERVABILITY.md "Quality monitoring &
// drift"): -drift-capture profiles this run's inputs, features,
// candidates, and scores into the -report it needs. The run records its
// quality; emmonitor check judges it against any other such report.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"

	"emgo/internal/cliutil"
	"emgo/internal/obs"
	"emgo/internal/workflow"
)

// SIGINT/SIGTERM cancel the run context: stages stop at their next
// cancellation check, run reports flush on the way out, and the process
// reports the interrupt distinctly (130).
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
	rec := cliutil.RunRecordFlags(fs, "write the run report JSON to this path ('-' = stdout)")
	driftCapture := fs.Bool("drift-capture", false, "profile this run into its -report, making the report a quality baseline")
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp // the FlagSet already printed the diagnostic
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "emmatch: unexpected argument %q\n", fs.Arg(0))
		return flag.ErrHelp
	}

	if !dep.Complete() {
		fmt.Fprintln(stderr, "usage: emmatch -spec workflow.json -left a.csv -right b.csv")
		return flag.ErrHelp
	}
	// The match CSV defaults to stdout, so a report may take it over only
	// when -out redirects the CSV to a file.
	if err := rec.CheckStdout(*out == "", "needs -out so the match CSV does not share stdout"); err != nil {
		return err
	}
	// The profile's one copy is the report.
	if *driftCapture && !rec.Reporting() {
		fmt.Fprintln(stderr, "emmatch: -drift-capture needs -report, where the profile is written")
		return flag.ErrHelp
	}

	if ctx, err = rec.Start(ctx, "emmatch", stdout, stderr); err != nil {
		return err
	}
	// The run proper: load what the flags name, deploy the workflow,
	// run it under the deadline.
	res, err := func() (*workflow.Result, error) {
		if err := dep.Load(); err != nil {
			return nil, err
		}
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		w, err := deploy(ctx, dep)
		if err != nil {
			return nil, err
		}
		return w.RunCtx(ctx, dep.Left, dep.Right, workflow.RunOptions{Profile: *driftCapture})
	}()
	var rep *obs.Report
	if res != nil {
		rep = res.Report
		fmt.Fprint(stderr, workflow.Stages(rep))
	}
	// A run that died before RunCtx could build a report (spec, table or
	// build errors) still leaves the abort record.
	if err := rec.Finish(rep, err); err != nil {
		return err
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

// deploy builds the workflow a loaded deployment's spec describes and
// deploys it over the right table: each reference column tokenised once
// for blockers and features both, as umetrics.RunDeployed does.
func deploy(ctx context.Context, dep *cliutil.Deployment) (*workflow.Workflow, error) {
	w, err := dep.Spec.Build(dep.Left, dep.Right, dep.Transforms)
	if err != nil {
		return nil, err
	}
	return w.Deploy(ctx, w.Matcher, dep.Right)
}
