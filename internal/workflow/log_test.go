package workflow

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"emgo/internal/block"
	"emgo/internal/label"
	"emgo/internal/obs"
)

// outcomeSequence renders a run report's stage spans as "step:outcome"
// tokens so tests can assert the exact stage trajectory.
func outcomeSequence(rep *obs.Report) []string {
	var seq []string
	for _, c := range rep.Trace.Children {
		if step, ok := strings.CutPrefix(c.Name, "stage."); ok {
			seq = append(seq, step+":"+c.Outcome)
		}
	}
	return seq
}

// TestRunCtxRetriedRunOutcomeSequence: a clean run ends every stage ok,
// and the monitoring check that follows it leaves the run's own record
// alone.
func TestRunCtxRetriedRunOutcomeSequence(t *testing.T) {
	w, tp := hardenedFixture(t)
	mon := &Monitor{SampleSize: 2, MinPrecision: 0.5, Rng: rand.New(rand.NewSource(7))}
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"sure_matches:ok", "blocked:ok", "candidates:ok",
		"learned:ok", "vetoed:ok", "final:ok",
	}
	got := outcomeSequence(res.Report)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("outcome sequence:\n got %v\nwant %v", got, want)
	}
	if _, err := mon.Check("seq-batch", res.Final, func(block.Pair) label.Label { return label.Yes }); err != nil {
		t.Fatal(err)
	}
	if got := outcomeSequence(res.Report); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("the check changed the run's record: %v", got)
	}
}

func TestRunCtxAbortedRunOutcomeSequence(t *testing.T) {
	w, tp := hardenedFixture(t)
	w.Blockers = append(w.Blockers, failingBlocker{})
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
	if err == nil {
		t.Fatal("blocking fault must abort the run")
	}
	if res == nil || res.Report == nil {
		t.Fatal("aborted run must still return its report")
	}
	want := []string{"sure_matches:ok", "blocked:aborted"}
	got := outcomeSequence(res.Report)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("outcome sequence:\n got %v\nwant %v", got, want)
	}
}

func TestRunCtxCancelledRunReturnsLog(t *testing.T) {
	w, tp := hardenedFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := w.RunCtx(ctx, tp.l, tp.r, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
	if res == nil || res.Report == nil {
		t.Fatal("cancelled run must still return its report")
	}
	got := outcomeSequence(res.Report)
	if len(got) != 1 || got[0] != "sure_matches:aborted" {
		t.Fatalf("outcome sequence: %v", got)
	}
}

// TestRunCtxReportRoundTrips is the acceptance test for the run report:
// the Result always carries one, it survives a JSON round trip, and the
// parsed document still holds per-stage spans with durations, outcomes
// and the items each stage produced.
func TestRunCtxReportRoundTrips(t *testing.T) {
	w, tp := hardenedFixture(t)
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("RunCtx must attach a report to every result")
	}
	data, err := res.Report.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if rep.Name != "workflow.hardened" || rep.Outcome != obs.OutcomeOK {
		t.Fatalf("report header: name=%q outcome=%q", rep.Name, rep.Outcome)
	}
	if rep.Trace == nil {
		t.Fatal("report lost its span tree")
	}
	stages := map[string]bool{}
	items := map[string]int64{}
	for _, child := range rep.Trace.Children {
		stages[child.Name] = true
		items[child.Name] = child.Items
		if child.Outcome != obs.OutcomeOK {
			t.Fatalf("stage %s outcome = %q", child.Name, child.Outcome)
		}
		if child.DurationMS < 0 {
			t.Fatalf("stage %s has negative duration", child.Name)
		}
	}
	for _, want := range []string{
		"stage.sure_matches", "stage.blocked", "stage.candidates",
		"stage.learned", "stage.vetoed", "stage.final",
	} {
		if !stages[want] {
			t.Fatalf("report missing span %s (have %v)", want, stages)
		}
	}
	if got, want := items["stage.final"], int64(res.Final.Len()); got != want {
		t.Fatalf("stage.final items = %d, want the %d final matches", got, want)
	}
}

// TestRunCtxAbortedReportCarriesError: a failed run's report must record
// the aborted outcome and the error string — that is the document an
// operator reads first.
func TestRunCtxAbortedReportCarriesError(t *testing.T) {
	w, tp := hardenedFixture(t)
	w.Blockers = append(w.Blockers, failingBlocker{})
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
	if err == nil {
		t.Fatal("expected abort")
	}
	if res.Report == nil {
		t.Fatal("aborted run must still build a report")
	}
	if res.Report.Outcome != obs.OutcomeAborted {
		t.Fatalf("report outcome = %q", res.Report.Outcome)
	}
	if !strings.Contains(res.Report.Error, "blocked") {
		t.Fatalf("report error = %q", res.Report.Error)
	}
}
