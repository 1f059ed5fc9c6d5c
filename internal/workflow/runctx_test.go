package workflow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"emgo/internal/block"
	"emgo/internal/fault"
	"emgo/internal/label"
	"emgo/internal/leakcheck"
	"emgo/internal/obs"
	"emgo/internal/rules"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// hardenedFixture assembles the full test workflow (rules + blocking +
// matcher + veto rules) reused from workflow_test.go's fixtures.
func hardenedFixture(t *testing.T) (*Workflow, *tableTablePair) {
	t.Helper()
	l, r := fixture(t)
	m1, err := rules.NewEqual("M1", l, "Num", nil, r, "Num", nil, rules.Match)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := rules.NewComparableMismatch("neg", l, "Num", nil, r, "Num", nil, rules.Set{"XXX#####"})
	if err != nil {
		t.Fatal(err)
	}
	fs, im, matcher := trained(t, l, r)
	w := &Workflow{
		Name:      "hardened",
		SureRules: rules.NewEngine(m1),
		Blockers: []block.Blocker{
			block.Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true},
		},
		Features: fs, Imputer: im, Matcher: matcher,
		NegativeRules: rules.NewEngine(neg),
	}
	return w, &tableTablePair{l: l, r: r}
}

type tableTablePair struct{ l, r *table.Table }

// TestRunCtxMatchesRun pins Run ≡ RunCtx with the zero options on every
// intermediate set, for the three shapes the case study's workflow took:
// Figure 8 (one sure rule, blocking, matcher), Figure 9 (a second,
// discovered sure rule), Figure 10 (negative rules vetoing the learner).
// There is one pipeline body; Run differs only in returning nil on error.
func TestRunCtxMatchesRun(t *testing.T) {
	leakcheck.Check(t)
	full, tp := hardenedFixture(t)
	m1, err := rules.NewEqual("M1", tp.l, "Num", nil, tp.r, "Num", nil, rules.Match)
	if err != nil {
		t.Fatal(err)
	}
	// The discovered rule decides the "swamp dodder" pair and withholds
	// opinion elsewhere, so the learner and the veto still have work.
	swampOnly := func(title string) string {
		if strings.HasPrefix(title, "swamp") {
			return title
		}
		return ""
	}
	m2, err := rules.NewEqual("M2", tp.l, "Title", swampOnly, tp.r, "Title", swampOnly, rules.Match)
	if err != nil {
		t.Fatal(err)
	}
	fig8 := *full
	fig8.Name, fig8.NegativeRules = "figure8", nil
	fig9 := fig8
	fig9.Name, fig9.SureRules = "figure9", rules.NewEngine(m1, m2)
	fig10 := fig9
	fig10.Name, fig10.NegativeRules = "figure10", full.NegativeRules

	for _, w := range []*Workflow{&fig8, &fig9, &fig10} {
		t.Run(w.Name, func(t *testing.T) {
			plain, err := w.Run(tp.l, tp.r)
			if err != nil {
				t.Fatal(err)
			}
			hard, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, set := range []struct {
				name        string
				plain, hard *block.CandidateSet
			}{
				{"Sure", plain.Sure, hard.Sure},
				{"Candidates", plain.Candidates, hard.Candidates},
				{"Learned", plain.Learned, hard.Learned},
				{"Final", plain.Final, hard.Final},
			} {
				if !reflect.DeepEqual(set.plain.Pairs(), set.hard.Pairs()) {
					t.Errorf("%s: Run %v, RunCtx %v", set.name, set.plain.Pairs(), set.hard.Pairs())
				}
			}
			if plain.Vetoed != hard.Vetoed {
				t.Errorf("Vetoed: Run %d, RunCtx %d", plain.Vetoed, hard.Vetoed)
			}
			if plain.Final.Len() == 0 {
				t.Fatal("final has no pairs — want matches")
			}
		})
	}

	bad := fig8
	bad.Features = nil
	if res, err := bad.Run(tp.l, tp.r); err == nil || res != nil {
		t.Fatalf("Run on a broken workflow = (%v, %v), want (nil, error)", res, err)
	}
	if res, err := bad.RunCtx(context.Background(), tp.l, tp.r, RunOptions{}); err == nil || res == nil || res.Log == nil {
		t.Fatalf("RunCtx on a broken workflow must keep its partial result and log, got (%v, %v)", res, err)
	}
}

// TestRunCtxTransientLabelerFaultRetried: the monitoring check over a
// run's final matches is the caller's step (RunCtx has no monitor stage).
// The check takes a labeler that cannot fail, so nothing is retried; an
// all-yes sample gives a precision interval ending at 1 and the check
// records one history entry.
func TestRunCtxTransientLabelerFaultRetried(t *testing.T) {
	w, tp := hardenedFixture(t)
	mon := &Monitor{SampleSize: 2, MinPrecision: 0.5, Rng: rand.New(rand.NewSource(7))}
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := mon.Check("batch-1", res.Final, func(block.Pair) label.Label { return label.Yes })
	if err != nil {
		t.Fatal(err)
	}
	if cr.Batch != "batch-1" || cr.Labeled != 2 || cr.Alarm {
		t.Fatalf("check result: %+v", cr)
	}
	if cr.Precision.Hi != 1 || cr.Precision.Lo < 0 || cr.Precision.Lo > cr.Precision.Hi {
		t.Fatalf("precision interval [%g,%g] for an all-yes sample", cr.Precision.Lo, cr.Precision.Hi)
	}
	if len(mon.History()) != 1 {
		t.Fatalf("monitor history = %d, want 1", len(mon.History()))
	}
}

// TestRunCtxFailingPairAborts: a pair whose vectorization or prediction
// panics aborts the run, the error names the pair by its left and right
// rows, and the result still carries the provenance log.
func TestRunCtxFailingPairAborts(t *testing.T) {
	for _, site := range []string{"feature.vectorize", "ml.predict"} {
		t.Run(site, func(t *testing.T) {
			defer fault.Reset()
			w, tp := hardenedFixture(t)
			fault.Enable(site, fault.Plan{Mode: fault.ModePanic, Indices: []int{0}})
			res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
			if err == nil {
				t.Fatal("a failing pair must abort the run")
			}
			if res == nil || res.Log == nil {
				t.Fatal("failed run must still return its provenance log")
			}
			if !strings.Contains(res.Log.String(), "[aborted]") {
				t.Fatalf("abort not logged:\n%s", res.Log)
			}
			p := res.Candidates.Pairs()[0]
			if want := fmt.Sprintf("pair (%d,%d): ", p.A, p.B); !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want it to name %q", err, want)
			}
		})
	}
}

func TestRunCtxStageDeadlineAborts(t *testing.T) {
	leakcheck.Check(t)
	w, tp := hardenedFixture(t)
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{
		StageTimeout: time.Nanosecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err: %v", err)
	}
	if !strings.Contains(res.Log.String(), "[aborted]") {
		t.Fatalf("abort not logged:\n%s", res.Log)
	}
}

// TestRunCtxSureStageInsideHardenedRuntime: the first stage is bounded and
// isolated like the rest. A sure-rule engine that has to scan (a Func
// rule) and is slow about it aborts sure_matches at the stage deadline
// instead of running to the end outside it, and a rule that panics is an
// aborted run with its record, not a dead process.
func TestRunCtxSureStageInsideHardenedRuntime(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range []struct {
		name string
		fire func(a, b table.Row) bool
		opts RunOptions
		is   error
	}{
		{"slow rule meets the stage deadline",
			func(a, b table.Row) bool { time.Sleep(30 * time.Millisecond); return false },
			RunOptions{StageTimeout: 20 * time.Millisecond}, context.DeadlineExceeded},
		{"panicking rule", func(a, b table.Row) bool { panic("poison rule") }, RunOptions{}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, tp := hardenedFixture(t)
			w.SureRules = rules.NewEngine(rules.Func{Label: "scan", Verdict: rules.Match, Fire: tc.fire})
			res, err := w.RunCtx(context.Background(), tp.l, tp.r, tc.opts)
			if err == nil || (tc.is != nil && !errors.Is(err, tc.is)) {
				t.Fatalf("err = %v, want an abort (%v)", err, tc.is)
			}
			if got := outcomeSequence(res.Log); len(got) != 1 || got[0] != "sure_matches:aborted" {
				t.Fatalf("outcome sequence %v, want [sure_matches:aborted]\n%s", got, res.Log)
			}
			if res.Report == nil || res.Report.Outcome != obs.OutcomeAborted {
				t.Fatalf("aborted run's report: %+v", res.Report)
			}
		})
	}
}

func TestRunCtxCancelledBeforeStart(t *testing.T) {
	leakcheck.Check(t)
	w, tp := hardenedFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := w.RunCtx(ctx, tp.l, tp.r, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
}

func TestRunCtxBlockJoinFaultAborts(t *testing.T) {
	defer fault.Reset()
	w, tp := hardenedFixture(t)
	fault.Enable("block.join", fault.Plan{FailFirst: 1})
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "blocked") {
		t.Fatalf("err: %v", err)
	}
	if !strings.Contains(res.Log.String(), "[aborted]") {
		t.Fatalf("abort not logged:\n%s", res.Log)
	}
}

func TestMonitorNilGuards(t *testing.T) {
	mon := &Monitor{}
	_, err := mon.Check("b", nil, func(block.Pair) label.Label { return label.Yes })
	if err == nil || !strings.Contains(err.Error(), "Rng") {
		t.Fatalf("nil Rng: %v", err)
	}
	mon.Rng = rand.New(rand.NewSource(1))
	// nil candidate set must be a descriptive error, not a panic.
	_, err = mon.Check("b", nil, func(block.Pair) label.Label { return label.Yes })
	if err == nil || !strings.Contains(err.Error(), "no candidate set") {
		t.Fatalf("nil predicted: %v", err)
	}
	_, err = mon.Check("b", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "labeler") {
		t.Fatalf("nil labeler: %v", err)
	}
}
