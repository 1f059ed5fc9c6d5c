package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"emgo/internal/block"
	"emgo/internal/cliutil"
	"emgo/internal/feature"
	"emgo/internal/ml"
	"emgo/internal/obs"
	"emgo/internal/table"
	"emgo/internal/workflow"
)

// TestRunReportFlag is the acceptance test for -report: a run must
// produce a machine-readable report whose JSON parses back into per-stage
// spans (with durations, items and outcomes) with the pipeline layers'
// spans under them, and stderr prints those stages.
func TestRunReportFlag(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", tinySpec)
	left := writeFile(t, dir, "left.csv", leftCSV)
	right := writeFile(t, dir, "right.csv", rightCSV)
	reportPath := filepath.Join(dir, "run.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right,
		"-transforms", "none", "-report", reportPath}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	// Stream discipline: the report goes to its file, the CSV to stdout,
	// and stderr confirms the write.
	if !strings.Contains(stdout.String(), "L1,R1") {
		t.Fatalf("match CSV missing from stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "wrote run report") {
		t.Fatalf("stderr: %s", stderr.String())
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Outcome != obs.OutcomeOK {
		t.Fatalf("outcome = %q, error = %q", rep.Outcome, rep.Error)
	}
	// The binary's root span says how the run ended, as the report does.
	if rep.Trace == nil || rep.Trace.Name != "emmatch" || rep.Trace.Outcome != obs.OutcomeOK {
		t.Fatalf("trace root: %+v", rep.Trace)
	}
	// The workflow's stage spans nest under the binary's root span, and
	// each blocker's join under the blocked stage.
	stages := map[string]string{}
	var joined int64
	var walk func(s *obs.SpanData)
	walk = func(s *obs.SpanData) {
		if strings.HasPrefix(s.Name, "stage.") {
			stages[s.Name] = s.Outcome
			if s.DurationMS < 0 {
				t.Fatalf("span %s has negative duration", s.Name)
			}
		}
		if s.Name == "block.join" {
			joined += s.Items
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(rep.Trace)
	for _, want := range []string{"stage.sure_matches", "stage.blocked", "stage.final"} {
		if stages[want] != obs.OutcomeOK {
			t.Fatalf("span %s outcome = %q (have %v)", want, stages[want], stages)
		}
	}
	// The blockers' work is their join spans' items.
	if joined < 1 {
		t.Fatalf("block.join spans carry %d items; trace: %+v", joined, rep.Trace)
	}
	// The stage table on stderr is the report's stage spans, rendered.
	if table := workflow.Stages(rep); !strings.HasPrefix(table, "sure_matches") ||
		!strings.Contains(stderr.String(), table) {
		t.Fatalf("stderr does not carry the report's stages %q:\n%s", table, stderr.String())
	}
}

// TestRunTraceFlag: the span tree rides in the -report file, rooted at
// the binary's span with the workflow's stages under it — there is no
// separate trace file to write.
func TestRunTraceFlag(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", tinySpec)
	left := writeFile(t, dir, "left.csv", leftCSV)
	right := writeFile(t, dir, "right.csv", rightCSV)
	reportPath := filepath.Join(dir, "run.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right,
		"-transforms", "none", "-report", reportPath}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Trace == nil || rep.Trace.Name != "emmatch" || len(rep.Trace.Children) == 0 {
		t.Fatalf("report trace: %+v", rep.Trace)
	}
}

// TestRunReportOnFailure: a run that dies mid-pipeline still writes the
// report, marked aborted and carrying the error — that is when the
// operator needs it most.
func TestRunReportOnFailure(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", `{
	  "name": "t",
	  "blockers": [{"type": "attr_equiv", "left_col": "Num", "right_col": "Num",
	                "left_transform": "missing"}]
	}`)
	left := writeFile(t, dir, "left.csv", leftCSV)
	right := writeFile(t, dir, "right.csv", rightCSV)
	reportPath := filepath.Join(dir, "run.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right,
		"-transforms", "none", "-report", reportPath}, &stdout, &stderr)
	if err == nil {
		t.Fatal("expected build failure")
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("failed run must still write the report: %v", err)
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != obs.OutcomeAborted || !strings.Contains(rep.Error, "unknown transform") {
		t.Fatalf("outcome=%q error=%q", rep.Outcome, rep.Error)
	}
	if rep.Trace == nil || rep.Trace.Outcome != obs.OutcomeAborted {
		t.Fatalf("trace root of an aborted run: %+v", rep.Trace)
	}
}

// TestRunReportStdoutGuards: stdout carries exactly one data document.
func TestRunReportStdoutGuards(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", tinySpec)
	left := writeFile(t, dir, "left.csv", leftCSV)
	right := writeFile(t, dir, "right.csv", rightCSV)
	base := []string{"-spec", spec, "-left", left, "-right", right, "-transforms", "none"}

	var stdout, stderr bytes.Buffer
	err := run(append(base, "-report", "-"), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-out") {
		t.Fatalf("-report - without -out must be rejected: %v", err)
	}

	// With -out redirecting the CSV, the report may own stdout; stdout
	// must then be exactly the JSON document.
	stdout.Reset()
	stderr.Reset()
	err = run(append(base, "-out", filepath.Join(dir, "m.csv"), "-report", "-"), &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if _, err := obs.ParseReport(stdout.Bytes()); err != nil {
		t.Fatalf("stdout is not a clean report document: %v\n%s", err, stdout.String())
	}
}

// TestRunDebugAddrServes: -debug-addr starts the expvar/pprof server for
// the duration of the run and announces it on stderr.
func TestRunDebugAddrServes(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "spec.json", tinySpec)
	left := writeFile(t, dir, "left.csv", leftCSV)
	right := writeFile(t, dir, "right.csv", rightCSV)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-spec", spec, "-left", left, "-right", right,
		"-transforms", "none", "-debug-addr", "127.0.0.1:0"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "debug server on http://127.0.0.1:") {
		t.Fatalf("debug server not announced:\n%s", stderr.String())
	}
}

// TestRunDeploysSharedTitleColumn: emmatch runs the workflow deploy
// gives — normalising title blockers and the lower-case title feature
// the tree reads sharing one reference column, held by identity, and the
// feature set bound to the right table — and the matches are those of
// the plain built workflow.
func TestRunDeploysSharedTitleColumn(t *testing.T) {
	words := []string{"corn", "soy", "dairy", "rust", "blight", "soil", "weed", "farm"}
	title := func(i int) string {
		return words[i%8] + " " + words[(i/8)%8] + " " + words[(i/64)%8] + " study"
	}
	var left, right strings.Builder
	left.WriteString("RecordId,Title\n")
	right.WriteString("RecordId,Title\n")
	const rightRows = 48
	for i := 0; i < rightRows; i++ {
		fmt.Fprintf(&right, "R%d,%s USDA\n", i, strings.ToUpper(title(i)))
		if i%4 == 0 {
			fmt.Fprintf(&left, "L%d,%s\n", i, title(i))
		}
	}
	f, err := feature.New("Title", "Title", "jaccard_word_lower")
	if err != nil {
		t.Fatal(err)
	}
	descs, err := (&feature.Set{Features: []feature.Feature{f}}).Descriptors()
	if err != nil {
		t.Fatal(err)
	}
	leaf := func(label int) *ml.NodeSpec { return &ml.NodeSpec{Leaf: true, Label: label, Proba: float64(label)} }
	spec := &workflow.Spec{
		Name: "titles",
		Blockers: []workflow.BlockerSpec{
			{Type: "overlap", LeftCol: "Title", RightCol: "Title", Tokenizer: "word", Threshold: 3, Normalize: true},
			{Type: "overlap_coeff", LeftCol: "Title", RightCol: "Title", Tokenizer: "word", Coefficient: 0.7, Normalize: true},
		},
		Features:     descs,
		ImputerMeans: []float64{0},
		Matcher: &ml.MatcherSpec{Kind: "decision_tree", Tree: &ml.TreeSpec{Features: []string{f.Name},
			Root: &ml.NodeSpec{Feature: 0, Threshold: 0.7, Left: leaf(0), Right: leaf(1)}}},
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	specPath := writeFile(t, dir, "spec.json", string(specJSON))
	leftPath := writeFile(t, dir, "left.csv", left.String())
	rightPath := writeFile(t, dir, "right.csv", right.String())
	reportPath := filepath.Join(dir, "run.json")

	deployArgs := []string{"-spec", specPath, "-left", leftPath, "-right", rightPath, "-transforms", "none"}

	var stdout, stderr bytes.Buffer
	if err := run(append(deployArgs, "-report", reportPath), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != obs.OutcomeOK {
		t.Fatalf("outcome = %q, error = %q", rep.Outcome, rep.Error)
	}

	// What run runs, under the same flags: one reference title column,
	// the blockers' and the feature set's both. A bound set keeps its
	// columns unexported, so they are read by reflection.
	fs := flag.NewFlagSet("emmatch", flag.ContinueOnError)
	dep := cliutil.DeploymentFlags(fs, "", "")
	if err := fs.Parse(deployArgs); err != nil {
		t.Fatal(err)
	}
	if err := dep.Load(); err != nil {
		t.Fatal(err)
	}
	d, err := deploy(context.Background(), dep)
	if err != nil {
		t.Fatal(err)
	}
	cols := block.Columns(d.Blockers)
	if len(cols) != 1 {
		t.Fatalf("the two title blockers hold %d reference columns, want one", len(cols))
	}
	cells := reflect.ValueOf(d.Features).Elem().FieldByName("cells")
	if !cells.IsValid() || cells.IsNil() {
		t.Fatal("the deployed feature set holds no bound cells")
	}
	if set := cells.Elem().FieldByName("cols"); set.Len() != 1 || set.Index(0).Pointer() != reflect.ValueOf(cols[0]).Pointer() {
		t.Fatalf("the feature set holds %d reference columns, want the blockers' one", set.Len())
	}
	if _, err := d.Features.VectorizeCtx(context.Background(), dep.Left, dep.Left, nil); err == nil {
		t.Fatal("the deployed feature set answers about a table it was not bound to")
	}

	// The plain path, Build then RunCtx, gives the same match CSV.
	lt, err := table.ReadCSVFile(leftPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := table.ReadCSVFile(rightPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.Build(lt, rt, workflow.Transforms{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.RunCtx(context.Background(), lt, rt, workflow.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := res.MatchIDs("RecordId", "RecordId")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("fixture: no matches to compare")
	}
	want := "RecordId,RecordId\n"
	for _, m := range ids {
		want += m.Left + "," + m.Right + "\n"
	}
	if stdout.String() != want {
		t.Fatalf("match CSV:\n%s\nplain workflow's:\n%s", stdout.String(), want)
	}
}
