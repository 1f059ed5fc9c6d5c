package umetrics

import (
	"context"
	"math/rand"

	"emgo/internal/block"
	"emgo/internal/cluster"
	"emgo/internal/estimate"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/workflow"
)

// matching reproduces Section 9: matcher selection, debugging that leads
// to the case-insensitive features, re-selection, and the Figure 8
// workflow totals.
func (s *study) matching(ctx context.Context) error {
	// Initial selection on the auto-generated features.
	ds, _, _, err := s.trainingSet(8)
	if err != nil {
		return err
	}
	cv, err := ml.SelectMatcherCtx(ctx, ml.DefaultFactories(s.cfg.Seed), ds, 5, s.cfg.Seed)
	if err != nil {
		return err
	}
	s.report.CVInitial = cv
	s.report.BestInitial = cv[0].Name

	// Debug the selected matcher with the split-half procedure; the
	// mismatches motivate the case-insensitive feature extension
	// ("many mismatches occurred due to award titles having different
	// letter cases").
	bestFactory, err := ml.FactoryByName(cv[0].Name, s.cfg.Seed)
	if err != nil {
		return err
	}
	if _, err := ml.SplitDebug(bestFactory, ds, rand.New(rand.NewSource(s.cfg.Seed+2))); err != nil {
		return err
	}
	corr, _ := FeatureColumns()
	if err := feature.AddCaseInsensitive(s.features, s.proj.UMETRICS, corr,
		[]string{"AwardTitle", "EmployeeName"}); err != nil {
		return err
	}

	// Re-select with the extended feature set.
	ds, _, im, err := s.trainingSet(8)
	if err != nil {
		return err
	}
	cv, err = ml.SelectMatcherCtx(ctx, ml.DefaultFactories(s.cfg.Seed), ds, 5, s.cfg.Seed)
	if err != nil {
		return err
	}
	s.report.CVWithCase = cv
	s.report.BestFinal = cv[0].Name

	// Figure 8: train the selected matcher on all decided non-sure
	// labels, remove the M1 pairs from C, and predict the rest.
	if err := s.train(cv[0].Name, ds, im); err != nil {
		return err
	}
	w, err := s.build(FigureSpec(8), s.proj, s.matcher)
	if err != nil {
		return err
	}
	res, err := w.Run(s.proj.UMETRICS, s.proj.USDA)
	if err != nil {
		return err
	}
	// The paper counts the M1 pairs inside C (210) rather than all M1
	// pairs; with the M1 rule doubling as the C1 blocker they coincide.
	inC, err := s.cand.Intersect(res.Sure)
	if err != nil {
		return err
	}
	s.report.M1InC = inC.Len()
	s.report.LearnedFig8 = res.Learned.Len()
	s.report.TotalFig8 = res.Final.Len()
	s.fig8 = res
	return nil
}

// updating reproduces Section 10: the discovered positive rule, its
// interaction with blocking and the matcher, and the Figure 9 patched
// workflow over the original and extra slices.
func (s *study) updating(ctx context.Context) error {
	// How much does the new rule — Figure 9's second sure rule — matter
	// on its own?
	fig9 := FigureSpec(9)
	rule2, err := s.build(&workflow.Spec{Name: fig9.Name, SureRules: fig9.SureRules[1:]}, s.proj, nil)
	if err != nil {
		return err
	}
	rule2Pairs := rule2.SureRules.SureMatches(s.proj.UMETRICS, s.proj.USDA)
	s.report.Rule2Cartesian = rule2Pairs.Len()
	inC, err := s.cand.Intersect(rule2Pairs)
	if err != nil {
		return err
	}
	s.report.Rule2InC = inC.Len()
	pred, err := s.fig8.Final.Intersect(rule2Pairs)
	if err != nil {
		return err
	}
	s.report.Rule2Predicted = pred.Len()

	// Retrain the matcher on labels with BOTH positive rules' sure pairs
	// removed ("we removed the sure matches from the labeled set and
	// selected the best matcher").
	ds, _, im, err := s.trainingSet(9)
	if err != nil {
		return err
	}
	s.lastTrain = ds
	cv, err := ml.SelectMatcherCtx(ctx, ml.DefaultFactories(s.cfg.Seed), ds, 5, s.cfg.Seed)
	if err != nil {
		return err
	}
	s.winner = cv[0].Name
	if err := s.train(s.winner, ds, im); err != nil {
		return err
	}

	// Figure 9 is deployed once and run over both slices: they share the
	// USDA table, so its blockers, rules and cells are built over it once.
	fig9w, err := s.build(fig9, s.proj, s.matcher)
	if err != nil {
		return err
	}
	if fig9w, err = fig9w.Deploy(ctx, s.matcher, s.proj.USDA); err != nil {
		return err
	}
	if s.res1, err = fig9w.Run(s.proj.UMETRICS, s.proj.USDA); err != nil {
		return err
	}
	if s.res2, err = fig9w.Run(s.extra.UMETRICS, s.extra.USDA); err != nil {
		return err
	}
	s.report.SureOriginal = s.res1.Sure.Len()
	s.report.SureExtra = s.res2.Sure.Len()
	s.report.CandOriginal = s.res1.Candidates.Len()
	s.report.CandExtra = s.res2.Candidates.Len()
	s.report.LearnedOriginal = s.res1.Learned.Len()
	s.report.LearnedExtra = s.res2.Learned.Len()
	s.report.TotalFig9 = s.res1.Final.Len() + s.res2.Final.Len()
	return nil
}

// evalItem is one element of the consolidated estimation universe E.
type evalItem struct {
	slice int // 0 = original, 1 = extra
	pair  block.Pair
	label label.Label
}

// estimating reproduces Section 11: Corleone estimation of the Figure 9
// workflow and the IRIS baseline over a labeled random sample of E.
func (s *study) estimating(context.Context) error {
	// Universe E = sure ∪ candidates of both slices.
	var universe []evalItem
	addAll := func(slice int, sets ...*block.CandidateSet) {
		seen := make(map[block.Pair]struct{})
		for _, set := range sets {
			for _, p := range set.Pairs() {
				if _, dup := seen[p]; dup {
					continue
				}
				seen[p] = struct{}{}
				universe = append(universe, evalItem{slice: slice, pair: p})
			}
		}
	}
	addAll(0, s.res1.Sure, s.res1.Candidates)
	addAll(1, s.res2.Sure, s.res2.Candidates)

	// IRIS over both slices; check it stays inside E (Section 11 step 1).
	iris1, err := NewIRIS(s.proj.UMETRICS, s.proj.USDA)
	if err != nil {
		return err
	}
	s.iris1 = iris1.Match(s.proj.UMETRICS, s.proj.USDA)
	iris2, err := NewIRIS(s.extra.UMETRICS, s.extra.USDA)
	if err != nil {
		return err
	}
	s.iris2 = iris2.Match(s.extra.UMETRICS, s.extra.USDA)
	inE := make(map[evalItem]struct{}, len(universe))
	for _, it := range universe {
		inE[evalItem{slice: it.slice, pair: it.pair}] = struct{}{}
	}
	for _, p := range s.iris1.Pairs() {
		if _, ok := inE[evalItem{slice: 0, pair: p}]; !ok {
			s.report.IRISOutsideE++
		}
	}
	for _, p := range s.iris2.Pairs() {
		if _, ok := inE[evalItem{slice: 1, pair: p}]; !ok {
			s.report.IRISOutsideE++
		}
	}

	// Experts label cumulative random samples of E, drawn from a stream
	// of the section's own, independent of Section 8's labelling sample.
	perm := rand.New(rand.NewSource(s.cfg.Seed + 3)).Perm(len(universe))
	expertFor := func(slice int) *TruthOracle {
		if slice == 0 {
			return s.oracle
		}
		return s.extOra
	}
	next := 0
	sampleMore := func(n int) {
		for n > 0 && next < len(perm) {
			it := &universe[perm[next]]
			o := expertFor(it.slice)
			switch {
			case o.IsHard(it.pair):
				it.label = label.Unsure
			case o.IsMatch(it.pair):
				it.label = label.Yes
			default:
				it.label = label.No
			}
			s.eval = append(s.eval, *it)
			next++
			n--
		}
	}

	for round, n := range s.cfg.EstimateRounds {
		sampleMore(n)
		ours, err := s.estimateSample(s.res1.Final, s.res2.Final)
		if err != nil {
			return err
		}
		irisEst, err := s.estimateSample(s.iris1, s.iris2)
		if err != nil {
			return err
		}
		if round == 0 {
			s.report.EstOursFirst = ours
			s.report.EstIRISFirst = irisEst
		}
		s.report.EstOursAll = ours
		s.report.EstIRISAll = irisEst
	}
	var counts label.Counts
	for _, it := range s.eval {
		switch it.label {
		case label.Yes:
			counts.Yes++
		case label.No:
			counts.No++
		case label.Unsure:
			counts.Unsure++
		}
	}
	s.report.EvalLabels = counts
	return nil
}

// estimateSample is the Corleone estimate, from the labeled evaluation
// sample, of a workflow whose predicted matches are pred1 over the
// original slice and pred2 over the extra one.
func (s *study) estimateSample(pred1, pred2 *block.CandidateSet) (estimate.Estimate, error) {
	predicted := make([]bool, len(s.eval))
	labels := make([]label.Label, len(s.eval))
	for i, it := range s.eval {
		if it.slice == 0 {
			predicted[i] = pred1.Contains(it.pair)
		} else {
			predicted[i] = pred2.Contains(it.pair)
		}
		labels[i] = it.label
	}
	return estimate.FromLabels(predicted, labels)
}

// refining reproduces Section 12: the negative pattern rule applied to
// the learner's predictions, the final Figure 10 workflow, and its
// estimated accuracy.
func (s *study) refining(context.Context) error {
	fig10, err := s.build(FigureSpec(10), s.proj, nil)
	if err != nil {
		return err
	}
	filterSlice := func(res *workflow.Result) (*block.CandidateSet, int, error) {
		kept, vetoed := fig10.NegativeRules.FilterMatches(res.Learned)
		final, err := res.Sure.Union(kept)
		if err != nil {
			return nil, 0, err
		}
		return final, vetoed, nil
	}
	final1, vetoed1, err := filterSlice(s.res1)
	if err != nil {
		return err
	}
	final2, vetoed2, err := filterSlice(s.res2)
	if err != nil {
		return err
	}
	s.report.VetoedOriginal = vetoed1
	s.report.VetoedExtra = vetoed2
	s.report.FinalMatches = final1.Len() + final2.Len()

	// The Section 10 multiplicity analysis: most matches should be
	// one-to-one; the one-to-many tail is the multi-year sub-award
	// structure the teams decided to live with.
	s.report.MatchDegrees = cluster.Degrees(final1)
	s.report.EntityClusters = len(cluster.ConnectedComponents(final1))

	// Same candidate universe, same labeled sample, new matcher: reuse
	// the evaluation sample (Section 12: "we can reuse the labeled set").
	if s.report.EstFinal, err = s.estimateSample(final1, final2); err != nil {
		return err
	}

	// Deliverable: (UniqueAwardNumber, AccessionNumber) ID pairs.
	ids1, err := matchIDs(final1)
	if err != nil {
		return err
	}
	ids2, err := matchIDs(final2)
	if err != nil {
		return err
	}
	s.report.Matches = workflow.MergeIDs(ids1, ids2)

	// Package the deployed workflow (Section 12 "Next Steps"). When the
	// CV winner is not a tree-based matcher (only those serialize), a
	// decision tree is fitted for deployment — the matcher the paper
	// itself shipped.
	deployMatcher := s.matcher
	if _, err := ml.ExportMatcher(deployMatcher); err != nil {
		tree := &ml.DecisionTree{}
		if err := tree.Fit(s.lastTrain); err != nil {
			return err
		}
		deployMatcher = tree
	}
	if s.report.Deployment, err = FigureSpec(10).Package(s.features, s.imputer, deployMatcher); err != nil {
		return err
	}

	// Release the labeled data (training labels keyed by business IDs,
	// plus the evaluation sample) — the paper's data contribution.
	for _, p := range s.labels.Pairs() {
		key := s.oracle.Key(p)
		s.report.LabeledPairs = append(s.report.LabeledPairs, LabeledPair{
			UAN: key.UAN, Accession: key.Accession,
			Label: s.labels.Get(p), Phase: "training",
		})
	}
	for _, it := range s.eval {
		o := s.oracle
		if it.slice == 1 {
			o = s.extOra
		}
		key := o.Key(it.pair)
		s.report.LabeledPairs = append(s.report.LabeledPairs, LabeledPair{
			UAN: key.UAN, Accession: key.Accession,
			Label: it.label, Phase: "evaluation",
		})
	}

	// Gold accuracy against the generator's ground truth (unavailable to
	// the paper's authors, invaluable for validating the reproduction).
	s.report.GoldIRIS = s.goldConfusion(s.iris1, s.iris2)
	fig8Extra := block.NewCandidateSet(s.extra.UMETRICS, s.extra.USDA)
	s.report.GoldFig8 = s.goldConfusion(s.fig8.Final, fig8Extra)
	s.report.GoldFig9 = s.goldConfusion(s.res1.Final, s.res2.Final)
	s.report.GoldFinal = s.goldConfusion(final1, final2)
	return nil
}

// matchIDs renders a final candidate set as ID pairs.
func matchIDs(final *block.CandidateSet) ([]workflow.IDPair, error) {
	res := &workflow.Result{Final: final}
	return res.MatchIDs("AwardNumber", "AccessionNumber")
}

// goldConfusion scores predicted match sets for both slices against the
// ground truth. Hard (undecidable) pairs are excluded, mirroring how the
// estimation procedure ignores Unsure labels.
func (s *study) goldConfusion(pred1, pred2 *block.CandidateSet) ml.Confusion {
	var c ml.Confusion
	count := func(o *TruthOracle, pred *block.CandidateSet) {
		for _, p := range pred.Pairs() {
			if o.IsHard(p) {
				continue
			}
			if o.IsMatch(p) {
				c.TP++
			} else {
				c.FP++
			}
		}
	}
	count(s.oracle, pred1)
	count(s.extOra, pred2)
	c.FN = s.ds.Truth.NumMatches() - c.TP
	return c
}
