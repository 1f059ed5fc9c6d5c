// Command emprofile prints per-column statistics of CSV tables — the
// exploration step of Section 4 (the pandas-profiling role): missing and
// unique counts, numeric statistics, and the most frequent values.
//
// Usage:
//
//	emprofile [-top] [-patterns] file.csv [file2.csv ...]
//
// Stream discipline: stdout carries only the profile report (the data),
// so it can be piped or redirected; per-file progress and every
// diagnostic go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"emgo/internal/cliutil"
	"emgo/internal/profile"
	"emgo/internal/rules"
	"emgo/internal/table"
)

// SIGINT/SIGTERM stop the run between files; the interrupt exits with
// the conventional 130 instead of a generic failure.
func main() { cliutil.Main("emprofile", runCtx) }

// run is runCtx without cancellation, kept as the testable seam.
func run(args []string, stdout, stderr io.Writer) error {
	return runCtx(context.Background(), args, stdout, stderr)
}

// runCtx is the program behind a testable seam; a panic anywhere in
// profiling becomes a one-line diagnostic instead of a stack trace.
func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()

	fs := flag.NewFlagSet("emprofile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Bool("top", false, "also print each column's most frequent values")
	patterns := fs.Bool("patterns", false, "also print each string column's identifier shapes (digits→#, letters→X, years→YYYY)")
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp // the FlagSet already printed the diagnostic
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: emprofile [-top] [-patterns] file.csv ...")
		return flag.ErrHelp
	}
	for _, path := range fs.Args() {
		// A signal between files stops the sweep cleanly: finished
		// profiles have already been written to stdout.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		t, err := table.ReadCSVFile(path, nil)
		if err != nil {
			return err // ReadCSVFile already names the file
		}
		fmt.Fprintf(stderr, "emprofile: %s: %d rows, %d columns\n", path, t.Len(), t.Schema().Len())
		rep := profile.Profile(t)
		fmt.Fprint(stdout, rep)
		if *top {
			for _, c := range rep.Columns {
				if len(c.Top) == 0 {
					continue
				}
				fmt.Fprintf(stdout, "  %s top values:", c.Name)
				for _, tv := range c.Top {
					fmt.Fprintf(stdout, " %q×%d", tv.Value, tv.Count)
				}
				fmt.Fprintln(stdout)
			}
		}
		if *patterns {
			gen := func(s string) string { return string(rules.Generalize(s)) }
			for _, c := range rep.Columns {
				if c.Kind != table.String {
					continue
				}
				shapes, err := profile.Patterns(t, c.Name, 5, gen)
				if err != nil || len(shapes) == 0 {
					continue
				}
				fmt.Fprintf(stdout, "  %s shapes:", c.Name)
				for _, s := range shapes {
					fmt.Fprintf(stdout, " %q×%d", s.Pattern, s.Count)
				}
				fmt.Fprintln(stdout)
			}
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
