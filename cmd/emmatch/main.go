// Command emmatch is the production matcher of Section 12: it deploys a
// packaged workflow spec over two CSV tables and writes the predicted
// matches, in one pass over the whole left table. Only data goes to
// stdout; the stage table and every diagnostic go to stderr. -h lists
// the flags, and docs/OPERATIONS.md#what-did-a-run-do reads the output.
//
//	emmatch -spec workflow.json -left new.csv -right reference.csv [-out matches.csv] [-report run.json]
//
// Exit status: 0 on success, 1 when the run fails, 2 on a usage error,
// 130 when SIGINT or SIGTERM cut it short. A failed or killed run is
// rerun from the start.
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
	out := fs.String("out", "", "output CSV, written atomically (default: stdout)")
	timeout := fs.Duration("timeout", 0, "deadline for the whole run, deployment included (0 = none)")
	rec := cliutil.RunRecordFlags(fs, "write the run report JSON, the run's one record (span tree, each stage's items and outcome), to this path, when the run fails too ('-' = stdout, with -out)")
	driftCapture := fs.Bool("drift-capture", false, "profile this run into its -report, making the report a quality baseline or a run for emmonitor check")
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
