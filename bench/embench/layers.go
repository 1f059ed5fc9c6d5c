package main

import (
	"context"
	"fmt"
	"time"

	"emgo/internal/block"
	"emgo/internal/ml"
	"emgo/internal/retry"
	"emgo/internal/rules"
	"emgo/internal/simfunc"
	"emgo/internal/table"
	"emgo/internal/tokenize"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// stages is the deployed workflow's match pipeline called one layer at
// a time — what Workflow.RunCtx and serve's matchSet do inside, replayed
// by the harness so each layer gets its own span. op names the
// operation the spans belong to; online selects the serve layer's form
// of the sure-rule scan (a serial JudgeWithRule loop, span "rules.scan")
// over the offline one (the parallel Engine.SureMatches, "rules.sure").
type stages struct {
	sure, blocked, cand, final *block.CandidateSet
	// Span durations in seconds.
	sureS, blockS, vectorizeS, predictS, vetoS float64
}

func (st *stages) layersS() float64 {
	return st.sureS + st.blockS + st.vectorizeS + st.predictS + st.vetoS
}

func replayStages(ctx context.Context, tr *tracer, parent, op int, online bool, wf *workflow.Workflow, left, right *table.Table) (*stages, error) {
	st := &stages{}
	var err error
	timed := tr.timeRef // one-shot calls over a whole slice
	if online {
		timed = tr.time // per-request calls: see tracer.time
		st.sure = block.NewCandidateSet(left, right)
		st.sureS = timed("rules.scan", parent, op, func() {
			for i := 0; i < left.Len(); i++ {
				row := left.Row(i)
				for j := 0; j < right.Len(); j++ {
					if v, _ := wf.SureRules.JudgeWithRule(row, right.Row(j)); v == rules.Match {
						st.sure.Add(block.Pair{A: i, B: j})
					}
				}
			}
		})
	} else {
		st.sureS = timed("rules.sure", parent, op, func() { st.sure = wf.SureRules.SureMatches(left, right) })
	}
	blockName := "block.union"
	if online {
		blockName = "block.probe"
	}
	st.blockS = timed(blockName, parent, op, func() {
		st.blocked, err = block.UnionBlockCtx(ctx, left, right, wf.Blockers...)
	})
	if err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	if st.cand, err = st.blocked.Minus(st.sure); err != nil {
		return nil, err
	}
	learned := block.NewCandidateSet(left, right)
	pairs := st.cand.Pairs()
	if len(pairs) > 0 {
		var x [][]float64
		st.vectorizeS = timed("feature.vectorize", parent, op, func() {
			x, err = wf.Features.VectorizeCtx(ctx, left, right, pairs)
		})
		if err != nil {
			return nil, fmt.Errorf("vectorize: %w", err)
		}
		var preds []int
		st.predictS = timed("ml.predict", parent, op, func() {
			if x, err = wf.Imputer.Transform(x); err == nil {
				preds, err = ml.PredictAllCtx(ctx, wf.Matcher, x)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("predict: %w", err)
		}
		for i, p := range pairs {
			if preds[i] == 1 {
				learned.Add(p)
			}
		}
	}
	kept := learned
	st.vetoS = timed("rules.veto", parent, op, func() {
		kept, _ = wf.NegativeRules.FilterMatches(learned)
	})
	st.final, err = st.sure.Union(kept)
	return st, err
}

// ladder measures every layer of the deployed workflow over the run's
// slice, outside in: the real Spec.BuildCtx and Workflow.RunCtx first,
// then the same work one layer at a time. workflow.self_s is what RunCtx
// costs beyond its layers (provenance, set algebra, the run report).
func ladder(ctx context.Context, tr *tracer, spec *workflow.Spec, sl *slice, out map[string]float64) (*workflow.Workflow, *stages, error) {
	root := tr.begin("ladder", -1, -1)
	defer tr.end(root)
	var wf *workflow.Workflow
	var res *workflow.Result
	var err error
	out["workflow.build_s"] = tr.timeRef("workflow.build", root, -1, func() {
		wf, err = spec.BuildCtx(ctx, sl.left, sl.right, umetrics.DeployTransforms(), retry.Policy{})
	})
	if err != nil {
		return nil, nil, err
	}
	out["workflow.run_s"] = tr.timeRef("workflow.run", root, -1, func() {
		res, err = wf.RunCtx(ctx, sl.left, sl.right, workflow.RunOptions{})
	})
	if err != nil {
		return nil, nil, err
	}

	replay := tr.begin("workflow.replay", root, -1)
	st, err := replayStages(ctx, tr, replay, -1, false, wf, sl.left, sl.right)
	tr.end(replay)
	if err != nil {
		return nil, nil, err
	}
	if got, want := sl.digest(st.final.Pairs()), sl.digest(res.Final.Pairs()); got != want {
		return nil, nil, fmt.Errorf("replayed stages give digest %s, RunCtx gives %s", got, want)
	}
	cart := float64(sl.left.Len()) * float64(sl.right.Len())
	out["rules.sure_s"] = st.sureS
	out["rules.pairs_judged"] = cart
	out["rules.judge_ns_per_pair"] = 1e9 * st.sureS / cart
	out["rules.sure_matches"] = float64(st.sure.Len())
	out["rules.veto_s"] = st.vetoS
	out["rules.vetoed"] = float64(res.Vetoed)

	out["block.union_s"] = st.blockS
	out["block.candidates"] = float64(st.cand.Len())
	out["block.reduction_ratio"] = float64(st.cand.Len()) / cart
	inside := sl.score(st.sure.Pairs()).TP + sl.score(st.cand.Pairs()).TP
	out["block.recall"] = float64(inside) / float64(sl.truthInSlice)

	n := float64(max(st.cand.Len(), 1))
	out["feature.vectorize_s"] = st.vectorizeS
	out["feature.pairs"] = float64(st.cand.Len())
	out["feature.us_per_pair"] = 1e6 * st.vectorizeS / n
	out["ml.predict_s"] = st.predictS
	out["ml.ns_per_vector"] = 1e9 * st.predictS / n

	out["workflow.matches"] = float64(res.Final.Len())
	out["workflow.self_s"] = out["workflow.run_s"] - st.layersS()

	// Allocation of vectorize alone, outside the timed replay so the two
	// stop-the-world reads do not sit inside a span.
	pairs := st.cand.Pairs()
	if len(pairs) > 2000 {
		pairs = pairs[:2000]
	}
	if len(pairs) > 0 {
		a0 := readMem()
		if _, err := wf.Features.VectorizeCtx(ctx, sl.left, sl.right, pairs); err != nil {
			return nil, nil, err
		}
		a1 := readMem()
		out["feature.alloc_kb_per_pair"] = float64(a1.totalAlloc-a0.totalAlloc) / 1024 / float64(len(pairs))
		micro(sl, pairs, out)
	}
	return wf, st, nil
}

// sink keeps the micro-benchmarks' results alive.
var sink float64

// micro times the innermost layers over the titles of the given
// candidate pairs: the tokenizer, then three similarity functions on
// pre-tokenized input.
func micro(sl *slice, pairs []block.Pair, out map[string]float64) {
	lt, _ := column(sl.left, "AwardTitle")
	rt, _ := column(sl.right, "AwardTitle")
	if lt == nil || rt == nil {
		return
	}
	const rounds = 5 // median of rounds: a 2000-pair sweep is ~ms
	var now segment
	now.probe(2 * traceBrackets)
	speed := now.speed()
	word := tokenize.Word{}
	la, ra := make([][]string, len(pairs)), make([][]string, len(pairs))
	per := func(f func()) float64 {
		var ds []float64
		for r := 0; r < rounds; r++ {
			t := time.Now()
			f()
			ds = append(ds, float64(time.Since(t).Nanoseconds()))
		}
		return speed * median(ds)
	}
	n := float64(len(pairs))
	out["tokenize.word_ns_per_title"] = per(func() {
		for i, p := range pairs {
			la[i] = word.Tokens(tokenize.Normalize(lt[p.A]))
			ra[i] = word.Tokens(tokenize.Normalize(rt[p.B]))
		}
	}) / (2 * n)
	out["simfunc.jaccard_ns_per_pair"] = per(func() {
		for i := range pairs {
			sink += simfunc.Jaccard(la[i], ra[i])
		}
	}) / n
	out["simfunc.monge_elkan_ns_per_pair"] = per(func() {
		for i := range pairs {
			sink += simfunc.MongeElkan(la[i], ra[i])
		}
	}) / n
	out["simfunc.levenshtein_ns_per_pair"] = per(func() {
		for _, p := range pairs {
			sink += float64(simfunc.Levenshtein(lt[p.A], rt[p.B]))
		}
	}) / n
}
