// Command emlabel is the labeling tool of the EM process (the Section 8
// "cloud-based labeling tool with a good UI", as a terminal program): it
// blocks two CSV tables on a column, samples candidate pairs, shows each
// pair side by side, and records Yes/No/Unsure judgments to a CSV the
// pipeline can train on.
//
// Usage:
//
//	emlabel -left a.csv -right b.csv -on Title [-n 20] [-seed 1] \
//	        [-left-id RecordId] [-right-id RecordId] [-out labels.csv]
//
// Keys: y = match, n = non-match, u = unsure, s = skip, q = quit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"emgo/internal/block"
	"emgo/internal/cliutil"
	"emgo/internal/label"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// SIGINT/SIGTERM end the labeling session gracefully: judgments recorded
// so far are flushed to -out before exiting 130, so an interrupted
// session never loses the labels already collected.
func main() {
	cliutil.Main("emlabel", func(ctx context.Context, args []string, stdout, stderr io.Writer) error {
		return runCtx(ctx, args, os.Stdin, stdout, stderr)
	})
}

// run is runCtx without cancellation, kept as the testable seam.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	return runCtx(context.Background(), args, stdin, stdout, stderr)
}

// runCtx is the whole program behind a testable seam.
func runCtx(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emlabel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	leftPath := fs.String("left", "", "left table CSV")
	rightPath := fs.String("right", "", "right table CSV")
	on := fs.String("on", "", "column to block on (word overlap, K=2)")
	n := fs.Int("n", 20, "how many pairs to sample")
	seed := fs.Int64("seed", 1, "sampling seed")
	leftID := fs.String("left-id", "", "left ID column for the output (default: row index)")
	rightID := fs.String("right-id", "", "right ID column for the output (default: row index)")
	out := fs.String("out", "labels.csv", "output CSV (left,right,label)")
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp // the FlagSet already printed the diagnostic
	}

	if *leftPath == "" || *rightPath == "" || *on == "" {
		fmt.Fprintln(stderr, "usage: emlabel -left a.csv -right b.csv -on Column")
		return flag.ErrHelp
	}
	left, err := table.ReadCSVFile(*leftPath, nil)
	if err != nil {
		return err
	}
	right, err := table.ReadCSVFile(*rightPath, nil)
	if err != nil {
		return err
	}
	cand, err := (block.Overlap{
		LeftCol: *on, RightCol: *on,
		Tokenizer: tokenize.Word{}, Threshold: 2, Normalize: true,
	}).Block(left, right)
	if err != nil {
		return err
	}
	if cand.Len() == 0 {
		return fmt.Errorf("no candidate pairs; try a different -on column")
	}
	count := *n
	if count > cand.Len() {
		count = cand.Len()
	}
	pairs, err := cand.Sample(count, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}

	store := label.NewStore()
	fmt.Fprintf(stdout, "labeling %d of %d candidate pairs (y/n/u, s=skip, q=quit)\n\n", count, cand.Len())
	if err := labelLoop(ctx, stdin, stdout, left, right, pairs, store); err != nil {
		return err
	}

	// The session's judgments are flushed whether it finished, quit, or
	// was interrupted — collected labels are too expensive to lose.
	if err := writeLabels(*out, left, right, *leftID, *rightID, store); err != nil {
		return err
	}
	c := store.Counts()
	fmt.Fprintf(stdout, "wrote %d labels (%d Yes / %d No / %d Unsure) to %s\n",
		c.Total(), c.Yes, c.No, c.Unsure, *out)
	if cerr := ctx.Err(); cerr != nil {
		fmt.Fprintln(stderr, "emlabel: session interrupted; partial labels saved")
		return cerr
	}
	return nil
}

// labelLoop drives the interactive session: render each pair, read a
// judgment, store it. It is separated from main for testing. A
// cancelled ctx ends the session between pairs like "q" does; the
// caller flushes whatever was recorded.
func labelLoop(ctx context.Context, in io.Reader, out io.Writer, left, right *table.Table, pairs []block.Pair, store *label.Store) error {
	reader := bufio.NewScanner(in)
	for i, p := range pairs {
		if ctx.Err() != nil {
			return nil
		}
		fmt.Fprintf(out, "--- pair %d/%d ---\n", i+1, len(pairs))
		renderPair(out, left, right, p)
		for {
			fmt.Fprint(out, "match? [y/n/u/s/q] ")
			if !reader.Scan() {
				return nil // EOF ends the session gracefully
			}
			switch strings.TrimSpace(strings.ToLower(reader.Text())) {
			case "y":
				store.Set(p, label.Yes)
			case "n":
				store.Set(p, label.No)
			case "u":
				store.Set(p, label.Unsure)
			case "s":
				// skip: no label
			case "q":
				return nil
			default:
				fmt.Fprintln(out, "please answer y, n, u, s, or q")
				continue
			}
			break
		}
	}
	return reader.Err()
}

// renderPair prints the two records side by side, one attribute per line.
func renderPair(out io.Writer, left, right *table.Table, p block.Pair) {
	names := left.Schema().Names()
	for _, col := range names {
		lv := left.Get(p.A, col)
		var rv string
		if right.Schema().Has(col) {
			rv = right.Get(p.B, col).String()
		} else {
			rv = "(no column)"
		}
		fmt.Fprintf(out, "  %-20s %-38q %q\n", col, lv.String(), rv)
	}
	// Right-only columns.
	for _, col := range right.Schema().Names() {
		if !left.Schema().Has(col) {
			fmt.Fprintf(out, "  %-20s %-38q %q\n", col, "(no column)", right.Get(p.B, col).String())
		}
	}
}

// writeLabels persists the session as (left,right,label) rows, using ID
// columns when given and row indices otherwise.
func writeLabels(path string, left, right *table.Table, leftID, rightID string, store *label.Store) error {
	idOf := func(t *table.Table, col string, row int) (string, error) {
		if col == "" {
			return fmt.Sprint(row), nil
		}
		v, err := t.Value(row, col)
		if err != nil {
			return "", err
		}
		return v.Str(), nil
	}
	var rows [][]string
	for _, p := range store.Pairs() {
		l, err := idOf(left, leftID, p.A)
		if err != nil {
			return err
		}
		r, err := idOf(right, rightID, p.B)
		if err != nil {
			return err
		}
		rows = append(rows, []string{l, r, store.Get(p).String()})
	}
	return cliutil.WriteCSV(path, []string{"left", "right", "label"}, rows)
}
