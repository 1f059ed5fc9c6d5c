package emgo

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"emgo/internal/block"
	"emgo/internal/feature"
	"emgo/internal/ml"
	"emgo/internal/table"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// Scalability sweep: blocking and rule application across generator
// scales (0.25x to 4x the paper's table sizes), with candidate counts
// reported per run. Fixtures are built once per scale,
// outside the timers.
type scaleFixture struct {
	proj *umetrics.Projected
}

var (
	scaleMu       sync.Mutex
	scaleFixtures = map[float64]*scaleFixture{}
)

func fixtureAtScale(b *testing.B, scale float64) *scaleFixture {
	b.Helper()
	scaleMu.Lock()
	defer scaleMu.Unlock()
	if f, ok := scaleFixtures[scale]; ok {
		return f
	}
	ds, err := umetrics.Generate(umetrics.TestParams(scale))
	if err != nil {
		b.Fatal(err)
	}
	proj, _, err := umetrics.Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		b.Fatal(err)
	}
	if err := umetrics.AddProjectNumber(proj, ds.USDA); err != nil {
		b.Fatal(err)
	}
	f := &scaleFixture{proj: proj}
	scaleFixtures[scale] = f
	return f
}

var sweepScales = []float64{0.25, 0.5, 1.0, 2.0, 4.0}

// BenchmarkScale_Blocking sweeps the Section 7 blocking pipeline across
// data scales. The candidates themselves grow ~4× a doubling (the
// generator's title vocabulary is fixed), so ns/candidate is the number
// that should stay flat across scales.
func BenchmarkScale_Blocking(b *testing.B) {
	for _, scale := range sweepScales {
		b.Run(fmt.Sprintf("scale=%.2g", scale), func(b *testing.B) {
			f := fixtureAtScale(b, scale)
			b.ResetTimer()
			var cand *block.CandidateSet
			for i := 0; i < b.N; i++ {
				var err error
				if cand, err = block.UnionBlockCtx(context.Background(), f.proj.UMETRICS, f.proj.USDA, benchBlockers()...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cand.Len()), "candidates")
			b.ReportMetric(float64(f.proj.UMETRICS.Len()*f.proj.USDA.Len()), "cartesian")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cand.Len()), "ns/candidate")
		})
	}
}

// BenchmarkScale_SureRules sweeps the positive-rule step (the Figure 9
// sure-match pull) across data scales, one doubling past the blocking
// sweep: both rules are equalities, so the engine runs them as a keyed
// join and time per doubling should stay near 2x (ROADMAP exit: <= 2.2x).
// Each iteration binds a fresh engine, so the right-side index build is
// inside the timing.
func BenchmarkScale_SureRules(b *testing.B) {
	for _, scale := range sweepScales {
		b.Run(fmt.Sprintf("scale=%.2g", scale), func(b *testing.B) {
			f := fixtureAtScale(b, scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fig9, err := umetrics.FigureSpec(9).Build(f.proj.UMETRICS, f.proj.USDA, umetrics.DeployTransforms())
				if err != nil {
					b.Fatal(err)
				}
				sure := fig9.SureRules.SureMatches(f.proj.UMETRICS, f.proj.USDA)
				b.ReportMetric(float64(sure.Len()), "sure_matches")
			}
		})
	}
}

// deployedFeatures is the deployed feature set over left and right:
// auto-generated plus the case-insensitive extension.
func deployedFeatures(b *testing.B, left, right *table.Table) *feature.Set {
	b.Helper()
	fs, err := feature.Generate(left, right, benchCorr, benchOrder)
	if err != nil {
		b.Fatal(err)
	}
	if err := feature.AddCaseInsensitive(fs, left, benchCorr, []string{"AwardTitle", "EmployeeName"}); err != nil {
		b.Fatal(err)
	}
	return fs
}

var (
	deploySpecOnce sync.Once
	deploySpec     *workflow.Spec
	deploySpecErr  error
)

// deployedSpec is the workflow spec the scale-1 case study deploys.
func deployedSpec(b *testing.B) *workflow.Spec {
	b.Helper()
	deploySpecOnce.Do(func() {
		var res *umetrics.Report
		if res, deploySpecErr = umetrics.Run(umetrics.TestConfig(1.0)); deploySpecErr == nil {
			deploySpec = res.Deployment
		}
	})
	if deploySpecErr != nil {
		b.Fatal(deploySpecErr)
	}
	return deploySpec
}

// deployedReads is the feature set the scale-1 case study's deployment
// vectorizes with (Workflow.Deploy): the features of deployedFeatures
// narrowed to the ones the deployed tree tests.
func deployedReads(b *testing.B, left, right *table.Table) *feature.Set {
	b.Helper()
	wf, err := deployedSpec(b).Build(left, right, umetrics.DeployTransforms())
	if err != nil {
		b.Fatal(err)
	}
	return wf.Features.Restrict(ml.ReadSet(wf.Matcher, wf.Features.Len()))
}

// mustBind returns fs bound to right, failing b on an error.
func mustBind(b *testing.B, fs *feature.Set, right *table.Table) *feature.Set {
	b.Helper()
	bound, err := fs.Bind(context.Background(), right)
	if err != nil {
		b.Fatal(err)
	}
	return bound
}

// BenchmarkVectorize turns the scale-1 candidate set into feature
// vectors with the deployed feature set — the per-pair rung under the
// Figure 8-10 workflows, in the two forms they run it: unbound, as
// RunDeployed and the study do (the right cells the pairs reference are
// prepared inside the call), and bound, as a server does (left cells
// only). Each form runs twice: over the full set, which is what the
// develop loop trains on, and under read=deployed over the set narrowed
// to what the deployed tree reads, which is what every deployment path
// computes. Run with -benchmem: bytes and allocations per op divided by
// the reported pair count are the per-pair garbage.
func BenchmarkVectorize(b *testing.B) {
	f := fixtureAtScale(b, 1.0)
	left, right := f.proj.UMETRICS, f.proj.USDA
	cand, err := block.UnionBlockCtx(context.Background(), left, right, benchBlockers()...)
	if err != nil {
		b.Fatal(err)
	}
	pairs := cand.Pairs()
	for _, name := range []string{"unbound", "bound", "unbound/read=deployed", "bound/read=deployed"} {
		b.Run(name, func(b *testing.B) {
			fs := deployedFeatures(b, left, right)
			if strings.HasSuffix(name, "read=deployed") {
				fs = deployedReads(b, left, right)
			}
			if strings.HasPrefix(name, "bound") {
				fs = mustBind(b, fs, right)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, err := fs.VectorizeCtx(context.Background(), left, right, pairs)
				if err != nil {
					b.Fatal(err)
				}
				if len(x) != len(pairs) {
					b.Fatalf("%d vectors for %d pairs", len(x), len(pairs))
				}
			}
			b.ReportMetric(float64(len(pairs)), "pairs")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pairs)), "ns/pair")
		})
	}
}

// BenchmarkPrepareCell prepares the scale-1 USDA titles under each cell
// form of the deployed set, one form at a time: binding a one-feature set
// prepares every right cell and nothing else. ns/cell is one cell's
// scan, sort and — for the word forms — dictionary look-ups.
func BenchmarkPrepareCell(b *testing.B) {
	f := fixtureAtScale(b, 1.0)
	right := f.proj.USDA
	for _, form := range []string{"qgram3", "qgram3_lower", "word", "word_lower"} {
		b.Run(form, func(b *testing.B) {
			ft, err := feature.New("AwardTitle", "AwardTitle", "jaccard_"+form)
			if err != nil {
				b.Fatal(err)
			}
			fs := &feature.Set{Features: []feature.Feature{ft}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustBind(b, fs, right)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(right.Len()), "ns/cell")
		})
	}
}

// The three rungs below split a bound run into what is paid once per
// reference table and what is paid per request, at scale 1 (the paper's
// 1,915 USDA rows); BenchmarkScale_Blocking above is the two together, for
// a left table that is not one row.

// BenchmarkBlockBind builds everything the Figure-10 blockers prepare from
// the right table: the key map and the one token column the two title
// blockers share.
func BenchmarkBlockBind(b *testing.B) {
	f := fixtureAtScale(b, 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustBindBlockers(b, f.proj.USDA)
	}
	b.ReportMetric(float64(f.proj.USDA.Len()), "right_rows")
}

// mustBindBlockers is the Figure-10 blockers bound to right.
func mustBindBlockers(b *testing.B, right *table.Table) []block.Blocker {
	b.Helper()
	bound, err := block.Bind(context.Background(), right, benchBlockers()...)
	if err != nil {
		b.Fatal(err)
	}
	return bound
}

// BenchmarkBlockProbeBound is one request's blocking: one left row against
// the bound right table, all three blockers, cycling over the left rows.
func BenchmarkBlockProbeBound(b *testing.B) {
	f := fixtureAtScale(b, 1.0)
	left, right := f.proj.UMETRICS, f.proj.USDA
	bound := mustBindBlockers(b, right)
	requests := make([]*table.Table, 256)
	for i := range requests {
		requests[i] = table.New("request", left.Schema())
		requests[i].MustAppend(left.Row(i % left.Len()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := block.UnionBlockCtx(context.Background(), requests[i%len(requests)], right, bound...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureBind prepares the right table's cells for the deployed
// feature set (auto-generated plus the case-insensitive extension), all of
// it: ten (column, form) groups.
func BenchmarkFeatureBind(b *testing.B) {
	f := fixtureAtScale(b, 1.0)
	benchFeatureBind(b, deployedFeatures(b, f.proj.UMETRICS, f.proj.USDA), f.proj.USDA)
}

// BenchmarkFeatureBindDeployed is the same bind as a server pays it: over
// the set narrowed to what the deployed tree reads. (A sibling, not a
// sub-benchmark, so BenchmarkFeatureBind keeps the name its committed
// snapshots carry.)
func BenchmarkFeatureBindDeployed(b *testing.B) {
	f := fixtureAtScale(b, 1.0)
	benchFeatureBind(b, deployedReads(b, f.proj.UMETRICS, f.proj.USDA), f.proj.USDA)
}

func benchFeatureBind(b *testing.B, fs *feature.Set, right *table.Table) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustBind(b, fs, right)
	}
	b.ReportMetric(float64(right.Len()), "right_rows")
}

// BenchmarkDeployedRun runs the scale-1 case study's deployment over fresh
// left slices of one reference table — the UMETRICS rows dealt round-robin
// into eight slices, against the 1,915 USDA rows — the two ways a caller
// can. build_per_slice is umetrics.RunDeployed per slice: Spec.Build
// and Workflow.Deploy per slice — the title column the blockers and the
// title feature share, the key indexes and the cells of every right row,
// built again each time — then RunCtx. deploy_once is Workflow.Deploy
// once, outside the timer, then RunCtx per slice. An op is one slice's
// run.
func BenchmarkDeployedRun(b *testing.B) {
	f := fixtureAtScale(b, 1.0)
	left, right := f.proj.UMETRICS, f.proj.USDA
	spec := deployedSpec(b)
	lefts := make([]*table.Table, 8)
	for k := range lefts {
		lefts[k] = table.New(fmt.Sprintf("slice%d", k), left.Schema())
	}
	for i := 0; i < left.Len(); i++ {
		lefts[i%len(lefts)].MustAppend(left.Row(i))
	}
	ctx := context.Background()
	b.Run("build_per_slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := umetrics.RunDeployed(ctx, spec, lefts[i%len(lefts)], right, workflow.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("deploy_once", func(b *testing.B) {
		w, err := spec.Build(lefts[0], right, umetrics.DeployTransforms())
		if err != nil {
			b.Fatal(err)
		}
		d, err := w.Deploy(ctx, w.Matcher, right)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.RunCtx(ctx, lefts[i%len(lefts)], right, workflow.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
