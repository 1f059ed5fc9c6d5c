package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emgo/internal/block"
	"emgo/internal/label"
	"emgo/internal/table"
)

func labelFixture() (*table.Table, *table.Table) {
	schema := table.MustSchema(
		table.Field{Name: "ID", Kind: table.String},
		table.Field{Name: "Title", Kind: table.String},
	)
	l := table.New("L", schema)
	l.MustAppend(table.Row{table.S("l0"), table.S("corn fungicide")})
	l.MustAppend(table.Row{table.S("l1"), table.S("swamp dodder")})
	r := table.New("R", schema)
	r.MustAppend(table.Row{table.S("r0"), table.S("Corn Fungicide")})
	r.MustAppend(table.Row{table.S("r1"), table.S("Swamp Dodder")})
	return l, r
}

func TestLabelLoop(t *testing.T) {
	l, r := labelFixture()
	pairs := []block.Pair{{A: 0, B: 0}, {A: 1, B: 1}, {A: 0, B: 1}}
	store := label.NewStore()
	// y, garbage then u, then quit before the third pair.
	in := strings.NewReader("y\nmaybe\nu\nq\n")
	var out bytes.Buffer
	if err := labelLoop(context.Background(), in, &out, l, r, pairs, store); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("labels stored = %d", store.Len())
	}
	if store.Get(block.Pair{A: 0, B: 0}) != label.Yes {
		t.Fatal("first pair should be Yes")
	}
	if store.Get(block.Pair{A: 1, B: 1}) != label.Unsure {
		t.Fatal("second pair should be Unsure after the retry prompt")
	}
	text := out.String()
	if !strings.Contains(text, "pair 1/3") || !strings.Contains(text, "corn fungicide") {
		t.Fatalf("rendering: %s", text)
	}
	if !strings.Contains(text, "please answer") {
		t.Fatal("invalid input should re-prompt")
	}
}

func TestLabelLoopSkipAndEOF(t *testing.T) {
	l, r := labelFixture()
	pairs := []block.Pair{{A: 0, B: 0}, {A: 1, B: 1}}
	store := label.NewStore()
	// Skip the first; EOF before answering the second.
	in := strings.NewReader("s\n")
	var out bytes.Buffer
	if err := labelLoop(context.Background(), in, &out, l, r, pairs, store); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatal("skip and EOF must store nothing")
	}
}

func TestWriteLabels(t *testing.T) {
	l, r := labelFixture()
	store := label.NewStore()
	store.Set(block.Pair{A: 0, B: 0}, label.Yes)
	store.Set(block.Pair{A: 1, B: 1}, label.No)
	path := filepath.Join(t.TempDir(), "labels.csv")

	if err := writeLabels(path, l, r, "ID", "ID", store); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if !strings.Contains(got, "l0,r0,Yes") || !strings.Contains(got, "l1,r1,No") {
		t.Fatalf("output: %s", got)
	}

	// Row-index fallback when no ID columns given.
	if err := writeLabels(path, l, r, "", "", store); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if !strings.Contains(string(data), "0,0,Yes") {
		t.Fatalf("index output: %s", data)
	}

	// Unknown ID column errors — and the failed write leaves the labels
	// already on disk as they were, not a truncated file.
	if err := writeLabels(path, l, r, "Nope", "ID", store); err == nil {
		t.Fatal("unknown ID column should error")
	}
	if after, _ := os.ReadFile(path); string(after) != string(data) {
		t.Fatalf("failed write changed the previous label file:\n%s", after)
	}
}

func TestRenderPairRightOnlyColumns(t *testing.T) {
	l, _ := labelFixture()
	r := table.New("R", table.MustSchema(
		table.Field{Name: "ID", Kind: table.String},
		table.Field{Name: "Extra", Kind: table.String},
	))
	r.MustAppend(table.Row{table.S("r0"), table.S("bonus")})
	var out bytes.Buffer
	renderPair(&out, l, r, block.Pair{A: 0, B: 0})
	text := out.String()
	if !strings.Contains(text, "Extra") || !strings.Contains(text, "bonus") {
		t.Fatalf("right-only column missing: %s", text)
	}
	if !strings.Contains(text, "(no column)") {
		t.Fatalf("missing-column marker absent: %s", text)
	}
}

// TestLabelLoopInterrupted: a cancelled context ends the session like
// "q" — no error, and judgments recorded before the interrupt survive
// for the caller to flush.
func TestLabelLoopInterrupted(t *testing.T) {
	l, r := labelFixture()
	pairs := []block.Pair{{A: 0, B: 0}, {A: 1, B: 1}}
	store := label.NewStore()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	in := strings.NewReader("y\ny\n")
	if err := labelLoop(ctx, in, &out, l, r, pairs, store); err != nil {
		t.Fatalf("interrupted session must end cleanly: %v", err)
	}
	if store.Counts().Total() != 0 {
		t.Fatalf("pre-cancelled session recorded %d labels", store.Counts().Total())
	}
}

// TestRunCtxInterruptFlushesPartialLabels drives the whole seam: the
// context is cancelled mid-session (after the first judgment), and the
// output CSV must still contain the labels collected so far.
func TestRunCtxInterruptFlushesPartialLabels(t *testing.T) {
	dir := t.TempDir()
	l, r := labelFixture()
	lPath := filepath.Join(dir, "l.csv")
	rPath := filepath.Join(dir, "r.csv")
	if err := l.WriteCSVFile(lPath); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSVFile(rPath); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "labels.csv")

	ctx, cancel := context.WithCancel(context.Background())
	// The reader cancels the context after serving the first judgment,
	// simulating SIGINT between pairs.
	in := &cancelAfterFirstRead{data: strings.NewReader("y\n"), cancel: cancel}
	var stdout, stderr bytes.Buffer
	err := runCtx(ctx, []string{
		"-left", lPath, "-right", rPath, "-on", "Title",
		"-left-id", "ID", "-right-id", "ID", "-out", out, "-n", "5",
	}, in, &stdout, &stderr)
	if err == nil || ctx.Err() == nil {
		t.Fatalf("interrupted run should surface the cancellation, got %v", err)
	}
	data, rerr := os.ReadFile(out)
	if rerr != nil {
		t.Fatalf("partial labels not flushed: %v", rerr)
	}
	if !strings.Contains(string(data), "Yes") {
		t.Fatalf("flushed labels missing the recorded judgment: %s", data)
	}
	if !strings.Contains(stderr.String(), "partial labels saved") {
		t.Fatalf("stderr should note the flush: %s", stderr.String())
	}
}

// cancelAfterFirstRead serves its underlying reader, firing cancel once
// the first read completes.
type cancelAfterFirstRead struct {
	data   io.Reader
	cancel context.CancelFunc
	done   bool
}

func (c *cancelAfterFirstRead) Read(p []byte) (int, error) {
	n, err := c.data.Read(p)
	if !c.done && n > 0 {
		c.done = true
		defer c.cancel()
	}
	return n, err
}
