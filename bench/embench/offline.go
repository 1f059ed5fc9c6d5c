package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"emgo/internal/block"
	"emgo/internal/ml"
	"emgo/internal/obs"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// deploy is deploy_x2: the production entry point umetrics.RunDeployed
// (spec build + RunCtx) over a slice twice the paper's size. No serve,
// no HTTP: a serve-only change must not move it.
type deploy struct {
	cfg  runConfig
	spec *workflow.Spec
	sl   *slice
	// ref is the match set of the plain Workflow.Run path over the same
	// slice — the warm-up rep and the cross-mode reference at once.
	ref string
}

func (d *deploy) setup(ctx context.Context) error {
	sl, err := buildSlice(d.cfg.sizes.deploy, d.cfg.dataSeed, d.cfg.seed)
	if err != nil {
		return err
	}
	wf, err := d.spec.Build(sl.left, sl.right, umetrics.DeployTransforms())
	if err != nil {
		return err
	}
	res, err := wf.Run(sl.left, sl.right)
	if err != nil {
		return err
	}
	d.sl, d.ref = sl, sl.digest(res.Final.Pairs())
	return nil
}

func (d *deploy) teardown() {}

// repProbes is how many reference-kernel samples are taken right before
// and right after an offline rep, which cannot be probed from inside.
const repProbes = 8

func (d *deploy) measure(ctx context.Context) (*measured, error) {
	reps := d.cfg.units(5, 2)
	m := &measured{attempted: reps}
	var final []block.Pair
	m.startPhase()
	for r := 0; r < reps; r++ {
		var err error
		m.timeSegment(func(seg *segment) {
			seg.probe(repProbes)
			defer seg.probe(repProbes)
			t := time.Now()
			var res *workflow.Result
			if res, err = umetrics.RunDeployed(ctx, d.spec, d.sl.left, d.sl.right, workflow.RunOptions{}); err != nil {
				return
			}
			seg.opMS = []float64{float64(time.Since(t)) / float64(time.Millisecond)}
			seg.records = d.sl.left.Len()
			final = res.Final.Pairs()
		})
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", r, err)
		}
		// Hashing ~2k pairs sits between segments: outside every timing,
		// and noise (<0.01%) in the phase's allocation counts.
		if got := d.sl.digest(final); got != d.ref {
			m.fail("rep %d: RunDeployed match set %s differs from plain Workflow.Run %s", r, got, d.ref)
		}
	}
	m.mem1 = readMem()
	m.digest = d.sl.digest(final)
	m.confusion = d.sl.score(final)
	m.work = fmt.Sprintf("%d reps of RunDeployed over %d x %d", reps, d.sl.left.Len(), d.sl.right.Len())
	return m, nil
}

// traced: the ladder's first two rungs, Spec.BuildCtx and Workflow.RunCtx
// under harness spans, are RunDeployed taken apart — they are the traced
// rep.
func (d *deploy) traced(ctx context.Context, tr *tracer, m *measured, out map[string]float64) error {
	out["umetrics.generate_s"], out["umetrics.preprocess_s"] = d.sl.generateS, d.sl.preprocessS
	if _, _, err := ladder(ctx, tr, d.spec, d.sl, out); err != nil {
		return err
	}
	p50 := median(segmentTimings(m.segs).latMS)
	out["bench.trace_overhead_frac"] = 1e3*(out["workflow.build_s"]+out["workflow.run_s"])/p50 - 1
	return nil
}

// study is develop_study: the paper's whole development loop,
// umetrics.RunCtxStudy, once per rep.
//
// A study is a closed simulation whose only input is its Config, and
// any seed-driven change to it re-rolls the labelling sample and flips
// the selected matcher (F1 0.91..0.99 across seeds). So the reps run a
// fixed list of study seeds, one each — five different label samples,
// so no single lucky matcher carries the number — and -seed only picks
// the order they run in. Quality is pooled over the list.
type study struct {
	cfg  runConfig
	spec *workflow.Spec
	sl   *slice // the study's original slice, for the ladder
	// warm is the digest of the warm-up study's matches; every set-up
	// repetition must reproduce it.
	warm string
	// firstMS is the untraced time (at reference speed) of the list's
	// first study, the one the traced pass repeats.
	firstMS float64
}

// minStudyF1 is the accuracy floor a study's final matches must clear
// against the generator's truth to count as a correct output.
const minStudyF1 = 0.8

func (s *study) config(scale float64, studySeed int64) umetrics.Config {
	cfg := umetrics.TestConfig(scale)
	cfg.Params.Seed = s.cfg.dataSeed
	cfg.Seed = studySeed
	return cfg
}

func studyDigest(rep *umetrics.Report) string {
	keys := make([]string, len(rep.Matches))
	for i, p := range rep.Matches {
		keys[i] = p.Left + "\x00" + p.Right
	}
	return digestKeys(keys)
}

func (s *study) setup(ctx context.Context) error {
	sl, err := buildSlice(s.cfg.sizes.study, s.cfg.dataSeed, s.cfg.seed)
	if err != nil {
		return err
	}
	s.sl = sl
	rep, err := umetrics.RunCtxStudy(ctx, s.config(s.cfg.sizes.warmStudy, s.cfg.dataSeed))
	if err != nil {
		return fmt.Errorf("warm-up study: %w", err)
	}
	d := studyDigest(rep)
	if s.warm != "" && s.warm != d {
		return fmt.Errorf("warm-up study is not deterministic: digest %s then %s", s.warm, d)
	}
	s.warm = d
	return nil
}

func (s *study) teardown() {}

func (s *study) measure(ctx context.Context) (*measured, error) {
	reps := s.cfg.units(5, 2)
	order := rand.New(rand.NewSource(s.cfg.seed)).Perm(reps)
	m := &measured{attempted: reps}
	digests := make([]string, reps)
	m.startPhase()
	for _, r := range order {
		cfg := s.config(s.cfg.sizes.study, s.cfg.dataSeed+int64(r))
		var err error
		var rep *umetrics.Report
		m.timeSegment(func(seg *segment) {
			seg.probe(repProbes)
			defer seg.probe(repProbes)
			t := time.Now()
			if rep, err = umetrics.RunCtxStudy(ctx, cfg); err != nil {
				return
			}
			seg.opMS = []float64{float64(time.Since(t)) / float64(time.Millisecond)}
			seg.records = cfg.Params.UMETRICSRows + cfg.Params.ExtraRows
		})
		if err != nil {
			return nil, fmt.Errorf("study seed %d: %w", cfg.Seed, err)
		}
		if r == 0 {
			last := m.segs[len(m.segs)-1]
			s.firstMS = last.opMS[0] * last.speed()
		}
		g := rep.GoldFinal
		m.confusion = ml.Confusion{TP: m.confusion.TP + g.TP, FP: m.confusion.FP + g.FP, FN: m.confusion.FN + g.FN}
		digests[r] = fmt.Sprintf("%d:%s", cfg.Seed, studyDigest(rep))
		if g.F1() < minStudyF1 || rep.FinalMatches != len(rep.Matches) {
			m.fail("study seed %d: F1 %.3f (floor %.2f), %d final matches, %d delivered", cfg.Seed, g.F1(), minStudyF1, rep.FinalMatches, len(rep.Matches))
		}
	}
	m.mem1 = readMem()
	m.digest = digestKeys(digests)
	m.work = fmt.Sprintf("%d reps of RunCtxStudy at scale %g, study seeds %d..%d", reps, s.cfg.sizes.study, s.cfg.dataSeed, s.cfg.dataSeed+int64(reps)-1)
	return m, nil
}

// traced runs the first study of the list once more under an obs trace
// rooted here, and reads the casestudy.* section spans RunCtxStudy
// already emits; then it times the three calls the sections hide
// (blocking debugger, matcher selection, leave-one-out label debugging)
// on the study-size slice.
func (s *study) traced(ctx context.Context, tr *tracer, m *measured, out map[string]float64) error {
	tctx, root := obs.NewTrace(ctx, "embench.develop_study")
	var err error
	studyS := tr.timeRef("umetrics.RunCtxStudy", -1, 0, func() {
		_, err = umetrics.RunCtxStudy(tctx, s.config(s.cfg.sizes.study, s.cfg.dataSeed))
	})
	root.End()
	if err != nil {
		return err
	}
	// Re-record the program's section spans as children of ours, and
	// report them at the same reference speed as the span around them.
	id := len(tr.spans) - 1
	f := studyS / tr.spans[id].durS()
	snap := root.Snapshot()
	for _, c := range snap.Children {
		start := tr.spans[id].StartUS + float64(c.Start.Sub(snap.Start))/float64(time.Microsecond)
		tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: id, Op: 0, Name: c.Name, StartUS: start, EndUS: start + 1e3*c.DurationMS})
		out["umetrics.section."+c.Name[len("casestudy."):]+"_s"] = f * c.DurationMS / 1e3
	}
	out["bench.trace_overhead_frac"] = 1e3*studyS/s.firstMS - 1
	out["umetrics.generate_s"], out["umetrics.preprocess_s"] = s.sl.generateS, s.sl.preprocessS

	wf, st, err := ladder(ctx, tr, s.spec, s.sl, out)
	if err != nil {
		return err
	}
	out["block.debugger_s"] = tr.timeRef("block.debugger", -1, 0, func() {
		_, err = block.Debugger{Cols: map[string]string{"AwardTitle": "AwardTitle"}, K: 100}.Run(st.blocked)
	})
	if err != nil {
		return err
	}
	ds, err := s.labelled(ctx, wf, st.cand)
	if err != nil {
		return err
	}
	seed := s.cfg.dataSeed
	out["ml.select_s"] = tr.timeRef("ml.select", -1, 0, func() {
		_, err = ml.SelectMatcher(ml.DefaultFactories(seed), ds, 5, seed)
	})
	if err != nil {
		return err
	}
	out["ml.loocv_s"] = tr.timeRef("ml.loocv", -1, 0, func() {
		_, err = ml.LeaveOneOutDebug(ml.Factory{
			Name: "random_forest",
			New:  func() ml.Matcher { return &ml.RandomForest{Seed: seed} },
		}, ds)
	})
	return err
}

// labelled builds a labelled set the size of the study's (three sampling
// rounds) from the candidate set: a third true matches, the rest
// non-matches, evenly spaced over the sorted candidates, labelled by the
// generator's truth.
func (s *study) labelled(ctx context.Context, wf *workflow.Workflow, cand *block.CandidateSet) (*ml.Dataset, error) {
	var pos, neg []block.Pair
	for _, p := range cand.Sorted() {
		uan, acc := s.sl.leftID[p.A], s.sl.rightID[p.B]
		switch {
		case s.sl.truth.IsHard(uan, acc):
		case s.sl.truth.IsMatch(uan, acc):
			pos = append(pos, p)
		default:
			neg = append(neg, p)
		}
	}
	n := 0
	for _, r := range umetrics.TestConfig(s.cfg.sizes.study).SampleRounds {
		n += r
	}
	pos, neg = spaced(pos, n/3), spaced(neg, n-n/3)
	pairs := append(pos, neg...)
	y := make([]int, len(pairs))
	for i := range pos {
		y[i] = 1
	}
	x, err := wf.Features.VectorizeCtx(ctx, s.sl.left, s.sl.right, pairs)
	if err != nil {
		return nil, err
	}
	if x, err = wf.Imputer.Transform(x); err != nil {
		return nil, err
	}
	return ml.NewDataset(wf.Features.Names(), x, y)
}

// spaced picks up to k evenly spaced elements of ps.
func spaced(ps []block.Pair, k int) []block.Pair {
	if len(ps) <= k {
		return ps
	}
	out := make([]block.Pair, k)
	for i := range out {
		out[i] = ps[i*len(ps)/k]
	}
	return out
}
