// Command emmonitor is the one judge of a deployed run's quality: check
// scores the profile a run's report carries against a baseline run's,
// diff compares two run reports, and perf gates two benchmark snapshots.
// Run with no arguments it prints its usage; docs/OPERATIONS.md#did-quality-drift
// reads check's output.
//
//	emmonitor check -baseline run1.json -run run.json | diff runA.json runB.json | perf OLD.json NEW.json
//
// Exit status: 0 on success, 1 when check finds a breach or perf a
// regression, 2 on a usage or I/O error, 130 when SIGINT or SIGTERM cut
// it short, so a breach is never confused with an operator's abort.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"emgo/internal/cliutil"
	"emgo/internal/drift"
	"emgo/internal/obs"
)

// errBreach marks a quality-gate failure, distinguished from usage/IO
// errors so CI gets exit 1 for "quality degraded" and 2 for "the check
// itself could not run".
var errBreach = errors.New("quality degraded")

// SIGINT/SIGTERM cancel the run context before the next subcommand step;
// an interrupt exits 130, never masquerading as a breach (1).
func main() {
	cliutil.MainCodes("emmonitor", runCtx, func(err error) int {
		if errors.Is(err, errBreach) {
			return 1
		}
		return 2
	})
}

// run is runCtx without cancellation, kept as the testable seam.
func run(args []string, stdout, stderr io.Writer) error {
	return runCtx(context.Background(), args, stdout, stderr)
}

// runCtx is the whole program behind a testable seam.
func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if len(args) == 0 {
		usage(stderr)
		return flag.ErrHelp
	}
	switch args[0] {
	case "check":
		return runCheck(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	case "perf":
		return runPerf(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return flag.ErrHelp
	default:
		usage(stderr)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  emmonitor check -baseline run1.json -run run.json [-thresholds th.json] [-strict]
  emmonitor diff runA.json runB.json
  emmonitor perf OLD_BENCH.json NEW_BENCH.json

exit status:
  0    success (check: quality holds; perf: no regression)
  1    check found a fail-threshold breach (or any warn under -strict);
       perf found a benchmark regression over the fail bar
  2    usage error, unreadable input, or internal failure
  130  interrupted by SIGINT/SIGTERM before finishing`)
}

// loadReport reads and parses a run report.
func loadReport(path string) (*obs.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return obs.ParseReport(data)
}

// loadProfile is the profile a run report at path embeds: check's
// -baseline and -run are the same kind of file, an emmatch
// -drift-capture run's report. A report without one is an error naming
// path.
func loadProfile(path string) (*drift.Profile, error) {
	rep, err := loadReport(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := drift.ProfileFromQuality(rep.Quality)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func runCheck(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emmonitor check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "baseline run report (from an emmatch -drift-capture run)")
	runPath := fs.String("run", "", "run report to check (from an emmatch -drift-capture run)")
	thresholdsPath := fs.String("thresholds", "", "JSON file replacing the warn/fail thresholds it names; the rest keep their defaults")
	strict := fs.Bool("strict", false, "treat warn-level drift as a breach too (exit 1)")
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp
	}
	if *baselinePath == "" || *runPath == "" {
		fmt.Fprintln(stderr, "emmonitor check needs -baseline and -run")
		return flag.ErrHelp
	}

	base, err := loadProfile(*baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	live, err := loadProfile(*runPath)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}

	// A thresholds file overrides the bars it names; the rest keep
	// their defaults (a zero bar would turn its signal off).
	th := drift.DefaultThresholds()
	if *thresholdsPath != "" {
		data, err := os.ReadFile(*thresholdsPath)
		if err != nil {
			return fmt.Errorf("thresholds: %w", err)
		}
		if err := unmarshalStrict(data, &th); err != nil {
			return fmt.Errorf("thresholds: %w", err)
		}
	}

	asmt, err := drift.Evaluate(base, live, th)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "run %s vs baseline %s: verdict %s\n", live.Name, base.Name, asmt.Verdict)
	for _, s := range asmt.Signals {
		marker := " "
		switch s.Status {
		case drift.StatusWarn:
			marker = "!"
		case drift.StatusFail:
			marker = "X"
		}
		fmt.Fprintf(stdout, "  %s %-40s %.4f (warn %.2f fail %.2f)\n", marker, s.Name, s.Value, s.Warn, s.Fail)
	}
	if asmt.EstimatedPrecision != nil {
		fmt.Fprintf(stdout, "  estimated precision (drift-discounted): %s\n", asmt.EstimatedPrecision)
	}
	if asmt.Breached() || (*strict && asmt.Verdict == drift.StatusWarn) {
		return fmt.Errorf("%w: verdict %s", errBreach, asmt.Verdict)
	}
	return nil
}

// unmarshalStrict rejects unknown fields, so a typoed threshold name
// fails loudly instead of silently using the default, and anything after
// the one JSON value, which would otherwise be ignored just as silently.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

func runDiff(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emmonitor diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "emmonitor diff needs exactly two run-report paths")
		return flag.ErrHelp
	}
	a, err := loadReport(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	b, err := loadReport(fs.Arg(1))
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(1), err)
	}
	return DiffReports(a, b).Render(stdout)
}
