package workflow

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"emgo/internal/block"
	"emgo/internal/label"
	"emgo/internal/obs"
)

func TestLogConcurrentAppends(t *testing.T) {
	l := &Log{}
	const workers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%2 == 0 {
					l.AddOutcome("step", "detail", i, "")
				} else {
					l.AddOutcome("step", "detail", i, obs.OutcomeDegraded)
				}
				// Readers race with the appends: Entries and String must
				// stay safe while stage workers are still logging.
				if i%25 == 0 {
					_ = l.Entries()
					_ = l.String()
				}
			}
		}(w)
	}
	wg.Wait()
	got := l.Entries()
	if len(got) != workers*each {
		t.Fatalf("entries = %d, want %d", len(got), workers*each)
	}
	// Every entry must be intact — no torn writes, no zero-value holes.
	for i, e := range got {
		if e.Step != "step" || e.Detail != "detail" {
			t.Fatalf("entry %d corrupted: %+v", i, e)
		}
		if e.Outcome != "" && e.Outcome != obs.OutcomeDegraded {
			t.Fatalf("entry %d unexpected outcome: %+v", i, e)
		}
	}
}

func TestLogEntriesCopySemantics(t *testing.T) {
	l := &Log{}
	l.AddOutcome("first", "a", 1, "")
	l.AddOutcome("second", "b", 2, obs.OutcomeDegraded)

	snap := l.Entries()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %d entries", len(snap))
	}

	// Later appends must not grow an earlier snapshot.
	l.AddOutcome("third", "c", 3, "")
	if len(snap) != 2 {
		t.Fatalf("snapshot grew after append: %d entries", len(snap))
	}

	// Mutating the snapshot must not touch the log.
	snap[0].Step = "hacked"
	snap[1].Outcome = obs.OutcomeAborted
	fresh := l.Entries()
	if fresh[0].Step != "first" || fresh[1].Outcome != obs.OutcomeDegraded {
		t.Fatalf("snapshot mutation leaked into log: %+v", fresh[:2])
	}
}

// outcomeSequence renders a log as "step:outcome" tokens (empty outcome
// normalized to ok) so tests can assert the exact stage trajectory.
func outcomeSequence(l *Log) []string {
	var seq []string
	for _, e := range l.Entries() {
		o := e.Outcome
		if o == "" {
			o = obs.OutcomeOK
		}
		seq = append(seq, e.Step+":"+o)
	}
	return seq
}

// TestRunCtxRetriedRunOutcomeSequence: a clean run logs every stage ok,
// and the monitoring check that follows it leaves the run's own log alone.
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
	got := outcomeSequence(res.Log)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("outcome sequence:\n got %v\nwant %v", got, want)
	}
	if _, err := mon.Check("seq-batch", res.Final, func(block.Pair) label.Label { return label.Yes }); err != nil {
		t.Fatal(err)
	}
	if got := outcomeSequence(res.Log); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("the check changed the run's log: %v", got)
	}
}

func TestRunCtxAbortedRunOutcomeSequence(t *testing.T) {
	w, tp := hardenedFixture(t)
	w.Blockers = append(w.Blockers, failingBlocker{})
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
	if err == nil {
		t.Fatal("blocking fault must abort the run")
	}
	if res == nil || res.Log == nil {
		t.Fatal("aborted run must still return its provenance log")
	}
	want := []string{"sure_matches:ok", "blocked:aborted"}
	got := outcomeSequence(res.Log)
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
	if res == nil || res.Log == nil {
		t.Fatal("cancelled run must still return its provenance log")
	}
	got := outcomeSequence(res.Log)
	if len(got) != 1 || got[0] != "sure_matches:aborted" {
		t.Fatalf("outcome sequence: %v", got)
	}
}

// TestRunCtxReportRoundTrips is the acceptance test for the run report:
// the Result always carries one, it survives a JSON round trip, and the
// parsed document still holds per-stage spans with durations and
// outcomes plus the provenance log.
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
	for _, child := range rep.Trace.Children {
		stages[child.Name] = true
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
	if len(rep.Provenance) != len(res.Log.Entries()) {
		t.Fatalf("provenance = %d entries, log = %d",
			len(rep.Provenance), len(res.Log.Entries()))
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
