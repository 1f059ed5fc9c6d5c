package workflow

import (
	"context"
	"errors"
	"fmt"
	"time"

	"emgo/internal/block"
	"emgo/internal/drift"
	"emgo/internal/feature"
	"emgo/internal/ml"
	"emgo/internal/obs"
	"emgo/internal/parallel"
	"emgo/internal/table"
)

// This file is the hardened execution runtime for workflows — the
// operational layer the paper's Section 12 production move demands:
// stages that stop at the caller's context, failure isolation (a worker
// panic surfaces as an error that aborts the run and names the failing
// pair), and a span per stage that records how it ended (ok / aborted)
// so an operator can reconstruct a bad run.
//
// RunCtx is also the observability anchor: every stage runs under an
// obs span recording wall time, item count, and outcome, and every run
// finishes with a machine-readable obs.Report on the Result (spans and,
// on a profiled run, the quality section) — the run's one record, the
// document -report flags write and perf work diffs against.

// RunOptions configures the hardened runtime. The zero value — what
// Run passes — runs the pipeline without a quality stage.
type RunOptions struct {
	// Profile arms quality observability (internal/drift): a final
	// "quality" stage profiles what the run produced — the feature
	// vectors and prediction scores of the pairs the matcher decided,
	// the input-table attributes, and blocking coverage — into the
	// report's quality section. The stage records; emmonitor check
	// judges, taking any such report as its baseline or as its run.
	Profile bool
}

// stage is one RunCtx stage being recorded: its "stage.<name>" span.
type stage struct {
	ctx  context.Context
	name string
	span *obs.Span
}

// finish is the stage's one record: it closes the span with the outcome
// and item count.
func (s stage) finish(outcome string, items int) {
	s.span.SetItems(items)
	s.span.SetOutcome(outcome)
	s.span.End()
}

// RunCtx executes the workflow on one (left, right) table pair under the
// hardened runtime — the one pipeline body; Run is this with the zero
// options. The returned Result is non-nil even on failure: its report
// (Result.Report) holds the stage spans up to and including the aborted
// one, which is the record an operator needs.
//
// When the caller's context already carries an obs trace (a CLI opened
// one for the whole process), stage spans nest under it; otherwise
// RunCtx roots its own trace so the report always has a span tree.
func (w *Workflow) RunCtx(ctx context.Context, left, right *table.Table, opts RunOptions) (res *Result, err error) {
	res = &Result{}
	started := time.Now()

	root := obs.SpanFromContext(ctx)
	ownRoot := root == nil
	if ownRoot {
		ctx, root = obs.NewTrace(ctx, "workflow."+w.Name)
	}
	var quality *obs.QualityData
	defer func() {
		if ownRoot {
			outcome := obs.OutcomeOK
			if err != nil {
				outcome = obs.OutcomeAborted
			}
			root.SetOutcome(outcome)
			root.End()
		}
		res.Report = obs.NewReport("workflow."+w.Name, started, root, err)
		res.Report.Quality = quality
	}()

	startStage := func(name string) stage {
		sctx, sp := obs.StartSpan(ctx, "stage."+name)
		return stage{ctx: sctx, name: name, span: sp}
	}
	abort := func(st stage, aerr error) (*Result, error) {
		st.finish(obs.OutcomeAborted, 0)
		return res, fmt.Errorf("workflow %s: %s: %w", w.Name, st.name, aerr)
	}

	// Step 1: sure matches straight from the tables, cancellable like
	// every stage that can take long: an engine with a Func rule scans
	// every pair.
	st := startStage("sure_matches")
	if cerr := ctx.Err(); cerr != nil {
		return abort(st, cerr)
	}
	res.Sure = block.NewCandidateSet(left, right)
	if w.SureRules != nil && w.SureRules.Len() > 0 {
		hits, herr := w.SureRules.SureHitsCtx(st.ctx, left, right)
		if herr != nil {
			return abort(st, herr)
		}
		for _, h := range hits {
			res.Sure.Add(h.Pair)
		}
	}
	st.finish(obs.OutcomeOK, res.Sure.Len())

	// Step 2: blocking.
	st = startStage("blocked")
	blocked, err := block.UnionBlockCtx(st.ctx, left, right, w.Blockers...)
	if err != nil {
		return abort(st, err)
	}
	st.finish(obs.OutcomeOK, blocked.Len())

	// Step 3: remove sure matches from the candidate set.
	st = startStage("candidates")
	res.Candidates, err = blocked.Minus(res.Sure)
	if err != nil {
		return abort(st, err)
	}
	st.finish(obs.OutcomeOK, res.Candidates.Len())

	// Step 4: learned predictions. A pair whose vectorization or
	// prediction fails (panic or error) aborts the run, named in the
	// error.
	st = startStage("learned")
	if err = w.learn(st.ctx, left, right, res); err != nil {
		return abort(st, err)
	}
	st.finish(obs.OutcomeOK, res.Learned.Len())

	// Step 5: negative rules veto learned matches.
	st = startStage("vetoed")
	kept := res.Learned
	if w.NegativeRules != nil && w.NegativeRules.Len() > 0 {
		kept, res.Vetoed = w.NegativeRules.FilterMatches(res.Learned)
	}
	st.finish(obs.OutcomeOK, res.Vetoed)

	// Step 6: final = sure ∪ kept.
	st = startStage("final")
	res.Final, err = res.Sure.Union(kept)
	if err != nil {
		return abort(st, err)
	}
	st.finish(obs.OutcomeOK, res.Final.Len())

	// Step 7 (optional): quality stage — profile the run's result into
	// the report. A profile the report cannot carry is an error: the
	// report is its one copy.
	if opts.Profile {
		st = startStage("quality")
		var p *drift.Profile
		if p, err = w.profile(st.ctx, left, right, blocked, res); err != nil {
			return abort(st, err)
		}
		if quality, err = drift.CaptureQuality(p); err != nil {
			return abort(st, err)
		}
		st.finish(obs.OutcomeOK, len(p.Features))
	}
	return res, nil
}

// PredictPairs is the vectorize → impute → predict chain over one list
// of candidate pairs, the one copy RunCtx and the serving tier share. fs,
// im and m travel together: a deployment's hold only the features its
// matcher reads, and its matcher is renumbered onto them (Deploy). The
// vectors are imputed in place and come back beside the predictions, for
// a probabilistic matcher's scores.
func PredictPairs(ctx context.Context, fs *feature.Set, im *feature.Imputer, m ml.Matcher, left, right *table.Table, pairs []block.Pair) ([]int, [][]float64, error) {
	x, err := fs.VectorizeCtx(ctx, left, right, pairs)
	if err != nil {
		return nil, nil, err
	}
	if err := im.Fill(x); err != nil {
		return nil, nil, err
	}
	preds, err := ml.PredictAllCtx(ctx, m, x)
	return preds, x, err
}

// learn is the body of the "learned" stage: res.Candidates through
// the matcher into res.Learned. A pair that fails aborts the stage, and
// the error names it by its left and right rows.
func (w *Workflow) learn(ctx context.Context, left, right *table.Table, res *Result) error {
	res.Learned = block.NewCandidateSet(left, right)
	if w.Matcher == nil || res.Candidates.Len() == 0 {
		return nil
	}
	if w.Features == nil || w.Imputer == nil {
		return errNoFeatures
	}
	l := learned{w.Features, w.Imputer, w.Matcher}
	if w.trained == nil {
		// A workflow Deploy did not return narrows for this run what a
		// deployment narrows once.
		var err error
		if l, err = l.narrow(); err != nil {
			return err
		}
	}
	pairs := res.Candidates.Pairs()
	preds, _, err := PredictPairs(ctx, l.features, l.imputer, l.matcher, left, right, pairs)
	if err != nil {
		if idx, ok := parallel.FailingIndex(err); ok {
			return fmt.Errorf("pair (%d,%d): %w", pairs[idx].A, pairs[idx].B, err)
		}
		return err
	}
	for i, p := range pairs {
		if preds[i] == 1 {
			res.Learned.Add(p)
		}
	}
	return nil
}

// errNoFeatures is a workflow with a matcher but nothing to feed it.
var errNoFeatures = errors.New("matcher set but features/imputer missing")

// profile builds the run's quality profile from its result, once and in
// pair order, so a rerun over the same inputs builds the same one. Its
// pairs are the ones the learned stage decided: the candidates. They are
// vectorized over every feature of the full set, not only the ones a
// deployment narrowed to: a feature's distribution over the candidates
// is also the one pairwise profile of the attributes the rules and
// blockers read (an award number that goes missing shows in
// AwardNumber_jaccard_qgram3, which no node tests). The raw vectors feed
// the feature distributions; imputed, they feed a probabilistic
// matcher's scores.
func (w *Workflow) profile(ctx context.Context, left, right *table.Table, blocked *block.CandidateSet, res *Result) (*drift.Profile, error) {
	var pairs []block.Pair
	if w.Matcher != nil {
		pairs = res.Candidates.Pairs()
	}
	b := drift.NewBuilder()
	if len(pairs) > 0 {
		full := w.full()
		if full.features == nil || full.imputer == nil {
			return nil, errNoFeatures
		}
		x, err := full.features.VectorizeCtx(ctx, left, right, pairs)
		if err != nil {
			return nil, err
		}
		b.ObserveVectors(full.features.Names(), x)
		if pm, ok := full.matcher.(ml.ProbabilisticMatcher); ok {
			if err := full.imputer.Fill(x); err != nil {
				return nil, err
			}
			for _, row := range x {
				b.ObserveScore(pm.Proba(row))
			}
		}
	}
	b.CountPredictions(len(pairs), res.Learned.Len())
	cols := append(b.ObserveTable("left", left), b.ObserveTable("right", right)...)
	return b.Profile("workflow."+w.Name, left.Len(), right.Len(), blocked.PerLeftCounts(), cols), nil
}
