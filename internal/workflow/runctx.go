package workflow

import (
	"context"
	"errors"
	"fmt"
	"time"

	"emgo/internal/block"
	"emgo/internal/ckpt"
	"emgo/internal/drift"
	"emgo/internal/feature"
	"emgo/internal/ml"
	"emgo/internal/obs"
	"emgo/internal/parallel"
	"emgo/internal/table"
)

// This file is the hardened execution runtime for workflows — the
// operational layer the paper's Section 12 production move demands:
// bounded stage execution (per-stage deadlines on top of the caller's
// context), failure isolation (a worker panic surfaces as an error that
// aborts the run and names the failing pair), and a provenance log that
// records how each stage ended (ok / resumed / aborted) so an operator
// can reconstruct a bad run.
//
// RunCtx is also the observability anchor: every stage runs under an
// obs span recording wall time, item count, and outcome, and every run
// finishes with a machine-readable obs.Report on the Result (spans +
// metrics snapshot + provenance log) — the document -report flags write
// and perf work diffs against.

// DriftStage asks RunCtx to run the quality-observability layer
// (internal/drift): a final "quality" stage profiles what the run
// produced — the feature vectors and prediction scores of the pairs the
// matcher decided, the input-table attributes, and blocking coverage. With a
// Baseline the stage is a drift check — the live profile is scored
// against the baseline and a breach surfaces as the degraded_quality
// stage outcome; without one the stage is a baseline capture, optionally
// persisted to BaselinePath with the crash-safe write protocol.
type DriftStage struct {
	// Baseline, when non-nil, switches the stage from capture to check:
	// the live profile is evaluated against it under
	// drift.DefaultThresholds.
	Baseline *drift.Profile
	// BaselinePath, in capture mode, is where the snapshot is persisted
	// (temp file + fsync + atomic rename); empty keeps it in memory only
	// (Result.DriftProfile).
	BaselinePath string
}

// RunOptions configures the hardened runtime. The zero value — what
// Run passes — means no per-stage deadlines.
type RunOptions struct {
	// StageTimeout bounds every cancellable stage (blocking, matching);
	// 0 means no per-stage deadline. The caller's context still bounds
	// the whole run.
	StageTimeout time.Duration
	// Drift, when non-nil, arms quality observability: the run is
	// profiled and finishes with a "quality" stage that captures a
	// baseline snapshot or checks the live profile against one (see
	// DriftStage).
	Drift *DriftStage
	// Checkpoints, when non-nil, makes the run durable: the blocked
	// candidate set and the learned predictions are written to the
	// store after their stages complete (temp file + fsync + atomic
	// rename, checksummed in the store's manifest), and a later run
	// over the same inputs restores them instead of recomputing —
	// recorded in provenance and spans as obs.OutcomeResumed. Corrupt or
	// stale artifacts are quarantined and the stage recomputed; the
	// store never makes a run fail.
	Checkpoints *ckpt.Store
}

// stageCtx derives the context for one cancellable stage.
func (o RunOptions) stageCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.StageTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, o.StageTimeout)
}

// stageMSBuckets are the upper bounds (milliseconds) of the per-stage
// duration histogram "workflow.stage_ms".
var stageMSBuckets = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000}

// stage is one RunCtx stage being recorded: its span, its place in the
// provenance log and its duration sample.
type stage struct {
	ctx   context.Context
	name  string
	span  *obs.Span
	log   *Log
	hist  *obs.Histogram
	start time.Time
}

// finish is the stage's one record: it closes the "stage.<name>" span
// with the outcome and item count, feeds "workflow.stage_ms" and appends
// the provenance entry — an ok one, as ever, without an outcome of its own.
func (s stage) finish(outcome, detail string, items int) {
	s.span.SetItems(items)
	s.span.SetOutcome(outcome)
	s.span.End()
	s.hist.Observe(float64(time.Since(s.start)) / float64(time.Millisecond))
	if outcome == obs.OutcomeOK {
		outcome = ""
	}
	s.log.AddOutcome(s.name, detail, items, outcome)
}

// checkpoint puts the durable step's note on the still-open stage span.
func (s stage) checkpoint(note string) {
	if note != "" {
		s.span.Event("ckpt", note)
	}
}

// RunCtx executes the workflow on one (left, right) table pair under the
// hardened runtime — the one pipeline body; Run is this with the zero
// options. The returned Result is non-nil even on failure: it carries the provenance log up to and including the aborted
// stage, which is the record an operator needs, plus the run report
// (Result.Report).
//
// When the caller's context already carries an obs trace (a CLI opened
// one for the whole process), stage spans nest under it; otherwise
// RunCtx roots its own trace so the report always has a span tree.
func (w *Workflow) RunCtx(ctx context.Context, left, right *table.Table, opts RunOptions) (res *Result, err error) {
	log := &Log{}
	res = &Result{Log: log}
	started := time.Now()

	root := obs.SpanFromContext(ctx)
	ownRoot := root == nil
	if ownRoot {
		ctx, root = obs.NewTrace(ctx, "workflow."+w.Name)
	}
	stageMS := obs.H("workflow.stage_ms", stageMSBuckets)
	defer func() {
		if ownRoot {
			outcome := obs.OutcomeOK
			if err != nil {
				outcome = obs.OutcomeAborted
			}
			root.SetOutcome(outcome)
			root.End()
		}
		res.Report = buildReport("workflow."+w.Name, started, root, res, err)
	}()

	startStage := func(name string) stage {
		sctx, sp := obs.StartSpan(ctx, "stage."+name)
		return stage{ctx: sctx, name: name, span: sp, log: log, hist: stageMS, start: time.Now()}
	}
	abort := func(st stage, aerr error) (*Result, error) {
		st.finish(obs.OutcomeAborted, aerr.Error(), 0)
		return res, fmt.Errorf("workflow %s: %s: %w", w.Name, st.name, aerr)
	}

	// Step 1: sure matches straight from the tables, under the stage
	// deadline like every stage that can take long: an engine with a
	// Func rule scans every pair.
	st := startStage("sure_matches")
	if cerr := ctx.Err(); cerr != nil {
		return abort(st, cerr)
	}
	res.Sure = block.NewCandidateSet(left, right)
	if w.SureRules != nil && w.SureRules.Len() > 0 {
		sctx, cancel := opts.stageCtx(st.ctx)
		hits, herr := w.SureRules.SureHitsCtx(sctx, left, right)
		cancel()
		if herr != nil {
			return abort(st, herr)
		}
		for _, h := range hits {
			res.Sure.Add(h.Pair)
		}
	}
	st.finish(obs.OutcomeOK, "positive rules over input tables", res.Sure.Len())

	// Step 2: blocking, under its stage deadline — or restored from a
	// checkpoint written by a previous run over the same inputs.
	st = startStage("blocked")
	var blocked *block.CandidateSet
	resumed, note, serr := ckpt.Do(opts.Checkpoints, ckptBlocked,
		func(a *pairsArtifact) (err error) {
			blocked, err = a.decode(left, right)
			return err
		},
		func() (err error) {
			bctx, cancel := opts.stageCtx(st.ctx)
			defer cancel()
			blocked, err = block.UnionBlockCtx(bctx, left, right, w.Blockers...)
			return err
		},
		func() pairsArtifact { return newPairsArtifact(blocked) })
	st.checkpoint(note)
	switch {
	case serr != nil:
		return abort(st, serr)
	case resumed:
		st.finish(obs.OutcomeResumed, "union of blockers (restored from checkpoint)", blocked.Len())
	default:
		st.finish(obs.OutcomeOK, "union of blockers", blocked.Len())
	}

	// Step 3: remove sure matches from the candidate set.
	st = startStage("candidates")
	res.Candidates, err = blocked.Minus(res.Sure)
	if err != nil {
		return abort(st, err)
	}
	st.finish(obs.OutcomeOK, "blocked minus sure matches", res.Candidates.Len())

	// Step 4: learned predictions. A pair whose vectorization or
	// prediction fails (panic or error) aborts the run, named in the
	// error. A checkpoint from a previous run restores the predictions,
	// so a resumed run does not re-pay the prediction cost.
	st = startStage("learned")
	resumed, note, serr = ckpt.Do(opts.Checkpoints, ckptLearned,
		func(a *learnedArtifact) (err error) {
			res.Learned, err = a.decode(left, right)
			return err
		},
		func() error { return w.learn(st.ctx, left, right, res, opts) },
		func() learnedArtifact { return learnedArtifact{pairsArtifact: newPairsArtifact(res.Learned)} })
	st.checkpoint(note)
	switch {
	case serr != nil:
		return abort(st, serr)
	case resumed:
		st.finish(obs.OutcomeResumed, "matcher predictions on candidates (restored from checkpoint)", res.Learned.Len())
	default:
		st.finish(obs.OutcomeOK, "matcher predictions on candidates", res.Learned.Len())
	}

	// Step 5: negative rules veto learned matches.
	st = startStage("vetoed")
	kept := res.Learned
	if w.NegativeRules != nil && w.NegativeRules.Len() > 0 {
		kept, res.Vetoed = w.NegativeRules.FilterMatches(res.Learned)
	}
	st.finish(obs.OutcomeOK, "negative rules flipped", res.Vetoed)

	// Step 6: final = sure ∪ kept.
	st = startStage("final")
	res.Final, err = res.Sure.Union(kept)
	if err != nil {
		return abort(st, err)
	}
	st.finish(obs.OutcomeOK, "sure matches plus surviving predictions", res.Final.Len())

	// Step 7 (optional): quality stage — profile the run's result and
	// either snapshot the profile as the baseline or check it against
	// one. A breach is not an error: the run completed; the
	// degraded_quality outcome in spans and provenance (and the report's
	// quality section) is the signal operators and emmonitor act on.
	if opts.Drift != nil {
		st = startStage("quality")
		if res.DriftProfile, err = w.profile(st.ctx, left, right, blocked, res, opts); err != nil {
			return abort(st, err)
		}
		if d := opts.Drift; d.Baseline == nil {
			if d.BaselinePath != "" {
				if werr := res.DriftProfile.WriteFile(d.BaselinePath); werr != nil {
					return abort(st, werr)
				}
			}
			st.finish(obs.OutcomeOK, "captured baseline quality profile", len(res.DriftProfile.Features))
		} else {
			asmt, aerr := drift.Evaluate(d.Baseline, res.DriftProfile, drift.DefaultThresholds())
			if aerr != nil {
				return abort(st, aerr)
			}
			res.Quality = asmt
			detail := fmt.Sprintf("drift verdict %s vs baseline %q", asmt.Verdict, d.Baseline.Name)
			if asmt.EstimatedPrecision != nil {
				detail += " est precision " + asmt.EstimatedPrecision.String()
			}
			outcome := obs.OutcomeOK
			if asmt.Verdict != drift.StatusOK {
				outcome = obs.OutcomeDegradedQuality
			}
			st.finish(outcome, detail, len(asmt.Signals))
		}
	}
	return res, nil
}

// buildReport assembles the machine-readable run report: obs.NewReport's
// record of the run plus what only the pipeline knows — the provenance
// log (the stage records, in order) and the quality section.
func buildReport(name string, started time.Time, root *obs.Span, res *Result, runErr error) *obs.Report {
	rep := obs.NewReport(name, started, root, runErr)
	rep.Provenance = res.Log.Entries()
	switch {
	case res.Quality != nil:
		rep.Quality = res.Quality.QualityData(res.DriftProfile)
	case res.DriftProfile != nil:
		rep.Quality = drift.CaptureQuality(res.DriftProfile)
	}
	return rep
}

// PredictPairs is the vectorize → impute → predict chain over one list
// of candidate pairs, the one copy RunCtx and the serving tier share. m
// and fs travel together: a deployed set computes only what its matcher
// reads (Deploy). The vectors are imputed in place and come back beside
// the predictions, for a probabilistic matcher's scores.
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

// learn is the live body of the "learned" stage: res.Candidates through
// the matcher into res.Learned. A pair that fails aborts the stage, and
// the error names it by its left and right rows.
func (w *Workflow) learn(ctx context.Context, left, right *table.Table, res *Result, opts RunOptions) error {
	res.Learned = block.NewCandidateSet(left, right)
	if w.Matcher == nil || res.Candidates.Len() == 0 {
		return nil
	}
	if w.Features == nil || w.Imputer == nil {
		return errNoFeatures
	}
	pairs := res.Candidates.Pairs()
	pctx, cancel := opts.stageCtx(ctx)
	preds, _, err := PredictPairs(pctx, w.Features, w.Imputer, w.Matcher, left, right, pairs)
	cancel()
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
// pair order, so a rerun over the same inputs — resumed from checkpoints
// or not — builds the same one. Its pairs are the ones the learned stage
// decided: the candidates. They are vectorized over every feature of the set, not only the ones a
// deployed matcher reads: a feature's distribution over the candidates
// is also the one pairwise profile of the attributes the rules and
// blockers read (an award number that goes missing shows in
// AwardNumber_jaccard_qgram3, which no node tests). The raw vectors feed
// the feature distributions; imputed, they feed a probabilistic
// matcher's scores.
func (w *Workflow) profile(ctx context.Context, left, right *table.Table, blocked *block.CandidateSet, res *Result, opts RunOptions) (*drift.Profile, error) {
	var pairs []block.Pair
	if w.Matcher != nil {
		pairs = res.Candidates.Pairs()
	}
	b := drift.NewBuilder()
	if len(pairs) > 0 {
		if w.Features == nil || w.Imputer == nil {
			return nil, errNoFeatures
		}
		all := make([]bool, w.Features.Len())
		for k := range all {
			all[k] = true
		}
		vctx, cancel := opts.stageCtx(ctx)
		x, err := w.Features.Restrict(all).VectorizeCtx(vctx, left, right, pairs)
		cancel()
		if err != nil {
			return nil, err
		}
		b.ObserveVectors(w.Features.Names(), x)
		if pm, ok := w.Matcher.(ml.ProbabilisticMatcher); ok {
			if err := w.Imputer.Fill(x); err != nil {
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
