package emgo

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"emgo/internal/block"
	"emgo/internal/estimate"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/profile"
	"emgo/internal/rules"
	"emgo/internal/simfunc"
	"emgo/internal/table"
	"emgo/internal/tokenize"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// benchWorld is the shared fixture for the per-experiment benchmarks: a
// half-scale UMETRICS world with projected tables, oracle labels, a
// feature set, and a trained matcher. Building it is excluded from every
// benchmark's timing.
type benchWorldT struct {
	ds      *umetrics.Dataset
	proj    *umetrics.Projected
	extra   *umetrics.Projected
	oracle  *umetrics.TruthOracle
	cand    *block.CandidateSet
	labels  *label.Store
	fs      *feature.Set
	im      *feature.Imputer
	matcher ml.Matcher
	dataset *ml.Dataset
	sure    *rules.Engine // Figure 9's sure rules over proj
}

var (
	benchOnce sync.Once
	benchW    *benchWorldT
	benchErr  error
)

func benchWorld(b *testing.B) *benchWorldT {
	b.Helper()
	benchOnce.Do(func() {
		benchW, benchErr = buildBenchWorld()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchW
}

var benchCorr, benchOrder = umetrics.FeatureColumns()

func benchBlockers() []block.Blocker {
	return []block.Blocker{
		block.AttrEquiv{
			LeftCol: "AwardNumber", RightCol: "AwardNumber",
			LeftTransform:  umetrics.SuffixNormalize,
			RightTransform: umetrics.NormalizeNumber,
		},
		block.Overlap{
			LeftCol: "AwardTitle", RightCol: "AwardTitle",
			Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true,
		},
		block.OverlapCoefficient{
			LeftCol: "AwardTitle", RightCol: "AwardTitle",
			Tokenizer: tokenize.Word{}, Threshold: 0.7, Normalize: true,
		},
	}
}

func buildBenchWorld() (*benchWorldT, error) {
	ds, err := umetrics.Generate(umetrics.TestParams(0.5))
	if err != nil {
		return nil, err
	}
	proj, _, err := umetrics.Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		return nil, err
	}
	if err := umetrics.AddProjectNumber(proj, ds.USDA); err != nil {
		return nil, err
	}
	extra, _, err := umetrics.Preprocess(ds.ExtraAwardAgg, ds.Employees, ds.USDA, "x", "s")
	if err != nil {
		return nil, err
	}
	extra.USDA = proj.USDA
	oracle, err := umetrics.NewTruthOracle(ds.Truth, proj.UMETRICS, proj.USDA)
	if err != nil {
		return nil, err
	}
	cand, err := block.UnionBlockCtx(context.Background(), proj.UMETRICS, proj.USDA, benchBlockers()...)
	if err != nil {
		return nil, err
	}
	w := &benchWorldT{ds: ds, proj: proj, extra: extra, oracle: oracle, cand: cand}

	// Labels: a 300-pair oracle-labeled sample.
	w.labels = label.NewStore()
	rng := rand.New(rand.NewSource(17))
	n := 300
	if n > cand.Len() {
		n = cand.Len()
	}
	sample, err := cand.Sample(n, rng)
	if err != nil {
		return nil, err
	}
	for _, p := range sample {
		switch {
		case oracle.IsHard(p):
			w.labels.Set(p, label.Unsure)
		case oracle.IsMatch(p):
			w.labels.Set(p, label.Yes)
		default:
			w.labels.Set(p, label.No)
		}
	}

	// Features with the case-insensitive extension, imputer, dataset,
	// trained decision tree.
	w.fs, err = feature.Generate(proj.UMETRICS, proj.USDA, benchCorr, benchOrder)
	if err != nil {
		return nil, err
	}
	if err := feature.AddCaseInsensitive(w.fs, proj.UMETRICS, benchCorr,
		[]string{"AwardTitle", "EmployeeName"}); err != nil {
		return nil, err
	}
	pairs, y := w.labels.Decided()
	x, err := w.fs.VectorizeCtx(context.Background(), proj.UMETRICS, proj.USDA, pairs)
	if err != nil {
		return nil, err
	}
	w.im, err = feature.FitImputer(x)
	if err != nil {
		return nil, err
	}
	if x, err = w.im.Transform(x); err != nil {
		return nil, err
	}
	w.dataset, err = ml.NewDataset(w.fs.Names(), x, y)
	if err != nil {
		return nil, err
	}
	tree := &ml.DecisionTree{}
	if err := tree.Fit(w.dataset); err != nil {
		return nil, err
	}
	w.matcher = tree

	fig9, err := umetrics.FigureSpec(9).Build(proj.UMETRICS, proj.USDA, umetrics.DeployTransforms())
	if err != nil {
		return nil, err
	}
	w.sure = fig9.SureRules
	return w, nil
}

// BenchmarkE1_Figure2Generate regenerates the seven raw tables at the
// exact Figure 2 sizes (1.45M employee rows included).
func BenchmarkE1_Figure2Generate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := umetrics.Generate(umetrics.PaperParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ds.Employees.Len()), "employee_rows")
	}
}

// BenchmarkE1_Figure2Profile profiles the matching-relevant tables (the
// Section 4 exploration step).
func BenchmarkE1_Figure2Profile(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.Profile(w.ds.AwardAgg)
		profile.Profile(w.ds.USDA)
	}
}

// BenchmarkE2_Blocking runs the Section 7 three-blocker pipeline.
func BenchmarkE2_Blocking(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cand, err := block.UnionBlockCtx(context.Background(), w.proj.UMETRICS, w.proj.USDA, benchBlockers()...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cand.Len()), "candidates")
	}
}

// BenchmarkE2_OverlapSweep runs the overlap blocker across the threshold
// sweep of Section 7 step 2.
func BenchmarkE2_OverlapSweep(b *testing.B) {
	w := benchWorld(b)
	for _, k := range []int{1, 3, 7} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := (block.Overlap{
					LeftCol: "AwardTitle", RightCol: "AwardTitle",
					Tokenizer: tokenize.Word{}, Threshold: k, Normalize: true,
				}).Block(context.Background(), w.proj.UMETRICS, w.proj.USDA)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2_BlockingDebugger runs the MatchCatcher-style debugger over
// the candidate set.
func BenchmarkE2_BlockingDebugger(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := block.Debugger{
			Cols: map[string]string{"AwardTitle": "AwardTitle"}, K: 100,
		}.Run(w.cand)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_SampleAndLabel samples candidate pairs and labels them
// through the single-writer tool with the simulated expert.
func BenchmarkE3_SampleAndLabel(b *testing.B) {
	w := benchWorld(b)
	expert := &label.Expert{Truth: w.oracle.IsMatch, Hard: w.oracle.IsHard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := label.NewStore()
		tool := label.NewTool(store)
		sample, err := w.cand.Sample(100, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		tool.Upload(sample)
		if err := tool.OpenSession("bench"); err != nil {
			b.Fatal(err)
		}
		if err := tool.LabelAll("bench", expert.Label); err != nil {
			b.Fatal(err)
		}
		if err := tool.CloseSession("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_LabelDebugLOOCV runs leave-one-out label debugging over the
// labeled sample (the Section 8 debugging step).
func BenchmarkE3_LabelDebugLOOCV(b *testing.B) {
	w := benchWorld(b)
	f := ml.Factory{Name: "random_forest", New: func() ml.Matcher { return &ml.RandomForest{Seed: 1} }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.LeaveOneOutDebug(f, w.dataset); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_MatcherSelection cross-validates the six-matcher suite
// (Section 9).
func BenchmarkE4_MatcherSelection(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.SelectMatcher(ml.DefaultFactories(1), w.dataset, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_TrainDebug runs the split-half matcher debugging procedure.
func BenchmarkE4_TrainDebug(b *testing.B) {
	w := benchWorld(b)
	f := ml.Factory{Name: "decision_tree", New: func() ml.Matcher { return &ml.DecisionTree{} }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.SplitDebug(context.Background(), f, w.dataset, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// figure builds the Figure 8, 9 or 10 workflow over one slice of the
// bench world, with the world's trained matcher.
func (w *benchWorldT) figure(b *testing.B, fig int, um *umetrics.Projected) *workflow.Workflow {
	b.Helper()
	wf, err := umetrics.FigureSpec(fig).Build(um.UMETRICS, um.USDA, umetrics.DeployTransforms())
	if err != nil {
		b.Fatal(err)
	}
	wf.Features, wf.Imputer, wf.Matcher = w.fs, w.im, w.matcher
	return wf
}

// BenchmarkE5_Figure8Workflow runs the initial workflow (M1 + learner).
func BenchmarkE5_Figure8Workflow(b *testing.B) {
	w := benchWorld(b)
	wf := w.figure(b, 8, w.proj)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := wf.Run(w.proj.UMETRICS, w.proj.USDA)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Final.Len()), "matches")
	}
}

// BenchmarkE6_Figure9Workflow runs the updated two-slice workflow (both
// positive rules, original + extra slices).
func BenchmarkE6_Figure9Workflow(b *testing.B) {
	w := benchWorld(b)
	wf1 := w.figure(b, 9, w.proj)
	wf2 := w.figure(b, 9, w.extra)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1, err := wf1.Run(w.proj.UMETRICS, w.proj.USDA)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := wf2.Run(w.extra.UMETRICS, w.extra.USDA)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r1.Final.Len()+r2.Final.Len()), "matches")
	}
}

// BenchmarkE7_AccuracyEstimation runs the Corleone estimation over a
// labeled evaluation sample.
func BenchmarkE7_AccuracyEstimation(b *testing.B) {
	w := benchWorld(b)
	wf := w.figure(b, 9, w.proj)
	res, err := wf.Run(w.proj.UMETRICS, w.proj.USDA)
	if err != nil {
		b.Fatal(err)
	}
	// Build a 400-pair labeled evaluation sample.
	universe, err := res.Sure.Union(res.Candidates)
	if err != nil {
		b.Fatal(err)
	}
	n := 400
	if n > universe.Len() {
		n = universe.Len()
	}
	sample, err := universe.Sample(n, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	store := label.NewStore()
	for _, p := range sample {
		switch {
		case w.oracle.IsHard(p):
			store.Set(p, label.Unsure)
		case w.oracle.IsMatch(p):
			store.Set(p, label.Yes)
		default:
			store.Set(p, label.No)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimate.PrecisionRecall(res.Final, store); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_Figure10Workflow runs the final workflow with negative
// rules.
func BenchmarkE8_Figure10Workflow(b *testing.B) {
	w := benchWorld(b)
	wf := w.figure(b, 10, w.proj)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := wf.Run(w.proj.UMETRICS, w.proj.USDA)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Vetoed), "vetoed")
	}
}

// BenchmarkE9_MatchDefinition applies the positive match-definition rules
// (M1, project-number) over the full Cartesian product.
func BenchmarkE9_MatchDefinition(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sure := w.sure.SureMatches(w.proj.UMETRICS, w.proj.USDA)
		b.ReportMetric(float64(sure.Len()), "sure_matches")
	}
}

// BenchmarkE10_Quickstart runs the Figure 1 toy example end to end.
func BenchmarkE10_Quickstart(b *testing.B) {
	schema := func() *table.Schema {
		return table.MustSchema(
			table.Field{Name: "Name", Kind: table.String},
			table.Field{Name: "City", Kind: table.String},
			table.Field{Name: "State", Kind: table.String},
		)
	}
	a := table.New("A", schema())
	a.MustAppend(table.Row{table.S("Dave Smith"), table.S("Madison"), table.S("WI")})
	a.MustAppend(table.Row{table.S("Joe Wilson"), table.S("San Jose"), table.S("CA")})
	a.MustAppend(table.Row{table.S("Dan Smith"), table.S("Middleton"), table.S("WI")})
	bb := table.New("B", schema())
	bb.MustAppend(table.Row{table.S("David D. Smith"), table.S("Madison"), table.S("WI")})
	bb.MustAppend(table.Row{table.S("Daniel W. Smith"), table.S("Middleton"), table.S("WI")})
	nameCol, _ := a.Col("Name")
	cityCol, _ := a.Col("City")
	rule := rules.Func{Label: "name", Verdict: rules.Match, Fire: func(l, r table.Row) bool {
		if !l[cityCol].Equal(r[cityCol]) {
			return false
		}
		tok := tokenize.Word{}
		return simfunc.MongeElkan(tok.Tokens(l[nameCol].Str()), tok.Tokens(r[nameCol].Str())) > 0.8
	}}
	wf := &workflow.Workflow{
		Name:      "quickstart",
		SureRules: rules.NewEngine(rule),
		Blockers:  []block.Blocker{block.AttrEquiv{LeftCol: "State", RightCol: "State"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := wf.Run(a, bb)
		if err != nil {
			b.Fatal(err)
		}
		if res.Final.Len() != 2 {
			b.Fatalf("expected the two Figure 1 matches, got %d", res.Final.Len())
		}
	}
}

// BenchmarkA1_CaseFeatureAblation vectorizes and cross-validates with and
// without the case-insensitive features.
func BenchmarkA1_CaseFeatureAblation(b *testing.B) {
	w := benchWorld(b)
	pairs, y := w.labels.Decided()
	run := func(b *testing.B, fs *feature.Set) {
		for i := 0; i < b.N; i++ {
			x, err := fs.VectorizeCtx(context.Background(), w.proj.UMETRICS, w.proj.USDA, pairs)
			if err != nil {
				b.Fatal(err)
			}
			im, err := feature.FitImputer(x)
			if err != nil {
				b.Fatal(err)
			}
			if x, err = im.Transform(x); err != nil {
				b.Fatal(err)
			}
			ds, err := ml.NewDataset(fs.Names(), x, y)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ml.CrossValidate(ml.Factory{
				Name: "decision_tree", New: func() ml.Matcher { return &ml.DecisionTree{} },
			}, ds, 5, rand.New(rand.NewSource(1))); err != nil {
				b.Fatal(err)
			}
		}
	}
	plain, err := feature.Generate(w.proj.UMETRICS, w.proj.USDA, benchCorr, benchOrder)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("without_case", func(b *testing.B) { run(b, plain) })
	b.Run("with_case", func(b *testing.B) { run(b, w.fs) })
}

// BenchmarkA2_BlockerUnionAblation times each title blocker alone and the
// union.
func BenchmarkA2_BlockerUnionAblation(b *testing.B) {
	w := benchWorld(b)
	c2 := block.Overlap{LeftCol: "AwardTitle", RightCol: "AwardTitle",
		Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true}
	c3 := block.OverlapCoefficient{LeftCol: "AwardTitle", RightCol: "AwardTitle",
		Tokenizer: tokenize.Word{}, Threshold: 0.7, Normalize: true}
	b.Run("C2_only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c2.Block(context.Background(), w.proj.UMETRICS, w.proj.USDA); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("C3_only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c3.Block(context.Background(), w.proj.UMETRICS, w.proj.USDA); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := block.UnionBlockCtx(context.Background(), w.proj.UMETRICS, w.proj.USDA, c2, c3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA3_UnsureHandling times training under the three
// unsure-handling policies.
func BenchmarkA3_UnsureHandling(b *testing.B) {
	w := benchWorld(b)
	decided, y := w.labels.Decided()
	var unsure []block.Pair
	for _, p := range w.labels.Pairs() {
		if w.labels.Get(p) == label.Unsure {
			unsure = append(unsure, p)
		}
	}
	run := func(b *testing.B, extraLabel int) {
		pairs := decided
		labels := y
		if extraLabel >= 0 {
			pairs = append(append([]block.Pair{}, decided...), unsure...)
			labels = append(append([]int{}, y...), make([]int, len(unsure))...)
			for i := len(y); i < len(labels); i++ {
				labels[i] = extraLabel
			}
		}
		for i := 0; i < b.N; i++ {
			x, err := w.fs.VectorizeCtx(context.Background(), w.proj.UMETRICS, w.proj.USDA, pairs)
			if err != nil {
				b.Fatal(err)
			}
			im, err := feature.FitImputer(x)
			if err != nil {
				b.Fatal(err)
			}
			if x, err = im.Transform(x); err != nil {
				b.Fatal(err)
			}
			ds, err := ml.NewDataset(w.fs.Names(), x, labels)
			if err != nil {
				b.Fatal(err)
			}
			tree := &ml.DecisionTree{}
			if err := tree.Fit(ds); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("dropped", func(b *testing.B) { run(b, -1) })
	b.Run("as_no", func(b *testing.B) { run(b, 0) })
	b.Run("as_yes", func(b *testing.B) { run(b, 1) })
}
