// Command emcasestudy runs the UMETRICS/USDA case study end to end and
// prints every number next to the value the paper reports; diagnostics
// go to stderr. -h lists the flags.
//
//	emcasestudy [-scale 1.0] [-seed 7] [-out matches.csv] [-labels labels.csv] [-spec spec.json]
//
// Exit status: 0 on success, 1 on a failure, 2 on a usage error, 130
// when SIGINT or SIGTERM cut it short. A study is one pass: a killed run
// is rerun, and its outputs are written atomically.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"emgo/internal/ckpt"
	"emgo/internal/cliutil"
	"emgo/internal/umetrics"
)

// SIGINT/SIGTERM cancel the study context: sections stop at their next
// cancellation check, the run report flushes on the way out, and the
// interrupt exits distinctly.
func main() { cliutil.Main("emcasestudy", runCtx) }

// run is runCtx without cancellation, kept as the testable seam.
func run(args []string, stdout, stderr io.Writer) error {
	return runCtx(context.Background(), args, stdout, stderr)
}

// runCtx is the whole program behind a testable seam.
func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emcasestudy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "data scale relative to the paper (1.0 = Figure 2 sizes)")
	seed := fs.Int64("seed", 7, "seed for every random choice in the run")
	out := fs.String("out", "", "optional CSV file for the final match ID pairs")
	labelsOut := fs.String("labels", "", "optional CSV file for the released labeled pairs")
	specOut := fs.String("spec", "", "optional JSON file for the packaged deployment workflow")
	rec := cliutil.RunRecordFlags(fs, "write the run report JSON, a span per study section, to this path ('-' is refused: stdout is the text report's)")
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp // the FlagSet already printed the diagnostic
	}

	cfg := umetrics.DefaultConfig()
	if *scale != 1.0 {
		cfg = umetrics.TestConfig(*scale)
	}
	cfg.Seed = *seed

	if err := rec.CheckStdout(true, "would share stdout with the text report; name a file"); err != nil {
		return err
	}
	ctx, err := rec.Start(ctx, "emcasestudy", stdout, stderr)
	if err != nil {
		return err
	}

	rep, err := umetrics.RunCtxStudy(ctx, cfg)
	if err := rec.Finish(nil, err); err != nil {
		return err
	}
	rep.Write(stdout)

	if *out != "" {
		if err := writeMatches(*out, rep); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d matches to %s\n", len(rep.Matches), *out)
	}
	if *labelsOut != "" {
		if err := writeLabels(*labelsOut, rep); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d labeled pairs to %s\n", len(rep.LabeledPairs), *labelsOut)
	}
	if *specOut != "" {
		data, err := rep.Deployment.Marshal()
		if err == nil {
			err = ckpt.AtomicWriteFile(*specOut, data, 0o644)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote deployment workflow spec to %s\n", *specOut)
	}
	return nil
}

// writeLabels releases the labeled tuple pairs — the dataset contribution
// the paper makes ("to serve as a good challenge problem for EM
// researchers").
func writeLabels(path string, rep *umetrics.Report) error {
	rows := make([][]string, len(rep.LabeledPairs))
	for i, lp := range rep.LabeledPairs {
		rows[i] = []string{lp.UAN, lp.Accession, lp.Label.String(), lp.Phase}
	}
	return cliutil.WriteCSV(path, []string{"UniqueAwardNumber", "AccessionNumber", "Label", "Phase"}, rows)
}

// writeMatches writes the final matches as (UniqueAwardNumber,
// AccessionNumber) pairs — the deliverable format of Section 12.
func writeMatches(path string, rep *umetrics.Report) error {
	rows := make([][]string, len(rep.Matches))
	for i, m := range rep.Matches {
		rows[i] = []string{m.Left, m.Right}
	}
	return cliutil.WriteCSV(path, []string{"UniqueAwardNumber", "AccessionNumber"}, rows)
}
