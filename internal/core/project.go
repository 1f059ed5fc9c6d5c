// Package core is emgo's public API: a Project type that walks the
// PyMatcher how-to guide end to end — load and explore tables, block,
// sample and label, generate features, select and train a matcher, layer
// rules around it, predict, and estimate accuracy. It composes the
// substrate packages (table, profile, block, feature, ml, rules, label,
// estimate, workflow) behind one coherent surface; everything it returns
// is an ordinary value from those packages, so advanced users can drop a
// level whenever the guide runs out (the "open-world" architecture the
// paper argues for in Section 13).
package core

import (
	"fmt"
	"math/rand"

	"emgo/internal/block"
	"emgo/internal/estimate"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/profile"
	"emgo/internal/rules"
	"emgo/internal/table"
	"emgo/internal/workflow"
)

// Project is one EM project over a fixed pair of tables. The zero value
// is not usable; create with NewProject. Methods are meant to be called
// roughly in guide order, but the zig-zag the paper describes is fully
// supported: blockers, rules, labels, and features can be revised at any
// point and later stages re-run.
type Project struct {
	name  string
	left  *table.Table
	right *table.Table

	blockers  []block.Blocker
	sureRules *rules.Engine
	negRules  *rules.Engine

	candidates *block.CandidateSet
	labels     *label.Store
	features   *feature.Set
	imputer    *feature.Imputer
	matcher    ml.Matcher

	seed int64
	rng  *rand.Rand
}

// NewProject starts an EM project matching left against right. seed makes
// every stochastic step (sampling, cross-validation folds, forests)
// reproducible.
func NewProject(name string, left, right *table.Table, seed int64) (*Project, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("core: project %q needs two tables", name)
	}
	return &Project{
		name:      name,
		left:      left,
		right:     right,
		sureRules: rules.NewEngine(),
		negRules:  rules.NewEngine(),
		labels:    label.NewStore(),
		seed:      seed,
		rng:       rand.New(rand.NewSource(seed)),
	}, nil
}

// Name returns the project name.
func (p *Project) Name() string { return p.name }

// Left and Right return the input tables.
func (p *Project) Left() *table.Table  { return p.left }
func (p *Project) Right() *table.Table { return p.right }

// Profile returns column profiles of both tables — the "understanding the
// data" step (Section 4 of the paper).
func (p *Project) Profile() (left, right *profile.Report) {
	return profile.Profile(p.left), profile.Profile(p.right)
}

// AddBlocker appends a blocker; Block unions all of them.
func (p *Project) AddBlocker(b block.Blocker) { p.blockers = append(p.blockers, b) }

// AddSureRule appends a positive rule applied directly to the input
// tables; its matches bypass blocking and the learner.
func (p *Project) AddSureRule(r rules.Rule) { p.sureRules.Add(r) }

// AddNegativeRule appends a veto rule applied to the learner's predicted
// matches.
func (p *Project) AddNegativeRule(r rules.Rule) { p.negRules.Add(r) }

// Block runs the blocking pipeline and stores (and returns) the candidate
// set.
func (p *Project) Block() (*block.CandidateSet, error) {
	if len(p.blockers) == 0 {
		return nil, fmt.Errorf("core: project %q has no blockers", p.name)
	}
	cand, err := block.UnionBlock(p.left, p.right, p.blockers...)
	if err != nil {
		return nil, err
	}
	p.candidates = cand
	return cand, nil
}

// Candidates returns the current candidate set (nil before Block).
func (p *Project) Candidates() *block.CandidateSet { return p.candidates }

// DebugBlocking ranks the likeliest matches NOT in the candidate set, for
// eyeballing whether blocking killed true matches. cols maps left columns
// to the right columns they are compared with.
func (p *Project) DebugBlocking(cols map[string]string, k int) ([]block.DebugPair, error) {
	if p.candidates == nil {
		return nil, fmt.Errorf("core: run Block before DebugBlocking")
	}
	return block.Debugger{Cols: cols, K: k}.Run(p.candidates)
}

// SamplePairs draws n unlabeled candidate pairs for labeling.
func (p *Project) SamplePairs(n int) ([]block.Pair, error) {
	if p.candidates == nil {
		return nil, fmt.Errorf("core: run Block before SamplePairs")
	}
	fresh := p.candidates.Filter(func(pr block.Pair) bool { return !p.labels.Has(pr) })
	if n > fresh.Len() {
		n = fresh.Len()
	}
	return fresh.Sample(n, p.rng)
}

// SetLabel records a human label for a pair.
func (p *Project) SetLabel(pair block.Pair, l label.Label) error {
	return p.labels.Set(pair, l)
}

// Labels returns the label store (callers may label through a
// label.Tool bound to it).
func (p *Project) Labels() *label.Store { return p.labels }

// GenerateFeatures builds the automatic feature set for the given column
// correspondence (left column → right column) in the given order.
func (p *Project) GenerateFeatures(corr map[string]string, order []string) error {
	fs, err := feature.Generate(p.left, p.right, corr, order)
	if err != nil {
		return err
	}
	p.features = fs
	return nil
}

// AddFeature appends a custom feature (the "patching" escape hatch).
func (p *Project) AddFeature(f feature.Feature) error {
	if p.features == nil {
		p.features = &feature.Set{}
	}
	return p.features.Add(f)
}

// Features returns the current feature set (nil before GenerateFeatures).
func (p *Project) Features() *feature.Set { return p.features }

// trainingData vectorizes the decided (Yes/No) labeled pairs, excluding
// any pair the sure rules already decide, and fits the imputer.
func (p *Project) trainingData() (*ml.Dataset, error) {
	if p.features == nil {
		return nil, fmt.Errorf("core: generate features before training")
	}
	decided, y := p.labels.Decided()
	var pairs []block.Pair
	var labels []int
	for i, pr := range decided {
		if p.sureRules.Len() > 0 &&
			p.sureRules.Judge(p.left.Row(pr.A), p.right.Row(pr.B)) == rules.Match {
			continue
		}
		pairs = append(pairs, pr)
		labels = append(labels, y[i])
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("core: no decided labels to train on")
	}
	x, err := p.features.Vectorize(p.left, p.right, pairs)
	if err != nil {
		return nil, err
	}
	im, err := feature.FitImputer(x)
	if err != nil {
		return nil, err
	}
	if x, err = im.Transform(x); err != nil {
		return nil, err
	}
	p.imputer = im
	return ml.NewDataset(p.features.Names(), x, labels)
}

// SelectMatcher cross-validates the standard matcher suite on the labeled
// data and returns the ranked results; the first entry wins.
func (p *Project) SelectMatcher(folds int) ([]ml.CVResult, error) {
	ds, err := p.trainingData()
	if err != nil {
		return nil, err
	}
	return ml.SelectMatcher(ml.DefaultFactories(p.seed), ds, folds, p.seed)
}

// Train fits a fresh matcher of the named kind ("decision_tree",
// "random_forest", ...) on the labeled data and installs it as the
// project's matcher.
func (p *Project) Train(matcherName string) error {
	ds, err := p.trainingData()
	if err != nil {
		return err
	}
	for _, f := range ml.DefaultFactories(p.seed) {
		if f.Name == matcherName {
			m := f.New()
			if err := m.Fit(ds); err != nil {
				return err
			}
			p.matcher = m
			return nil
		}
	}
	return fmt.Errorf("core: unknown matcher %q", matcherName)
}

// DebugLabels runs leave-one-out label debugging and returns the pairs
// whose labels disagree with the model's prediction (Section 8's
// label-debugging step).
func (p *Project) DebugLabels() ([]block.Pair, error) {
	ds, err := p.trainingData()
	if err != nil {
		return nil, err
	}
	decided, _ := p.labels.Decided()
	var kept []block.Pair
	for _, pr := range decided {
		if p.sureRules.Len() > 0 &&
			p.sureRules.Judge(p.left.Row(pr.A), p.right.Row(pr.B)) == rules.Match {
			continue
		}
		kept = append(kept, pr)
	}
	flagged, err := ml.LeaveOneOutDebug(ml.Factory{
		Name: "random_forest",
		New:  func() ml.Matcher { return &ml.RandomForest{Seed: p.seed} },
	}, ds)
	if err != nil {
		return nil, err
	}
	out := make([]block.Pair, 0, len(flagged))
	for _, m := range flagged {
		out = append(out, kept[m.Index])
	}
	return out, nil
}

// Match runs the full workflow — sure rules, blocking, the trained
// matcher, negative rules — and returns the result.
func (p *Project) Match() (*workflow.Result, error) {
	if len(p.blockers) == 0 {
		return nil, fmt.Errorf("core: project %q has no blockers", p.name)
	}
	w := &workflow.Workflow{
		Name:          p.name,
		SureRules:     p.sureRules,
		Blockers:      p.blockers,
		NegativeRules: p.negRules,
	}
	if p.matcher != nil {
		if p.features == nil || p.imputer == nil {
			return nil, fmt.Errorf("core: train before Match")
		}
		w.Features = p.features
		w.Imputer = p.imputer
		w.Matcher = p.matcher
	}
	return w.Run(p.left, p.right)
}

// EstimateAccuracy estimates precision and recall of a predicted match
// set from a labeled random sample of the candidate set (the Corleone
// procedure of Section 11).
func (p *Project) EstimateAccuracy(pred *block.CandidateSet, sample *label.Store) (estimate.Estimate, error) {
	return estimate.PrecisionRecall(pred, sample)
}

// FeatureImportance reports which features the trained matcher actually
// relies on (tree-based matchers only) — the debugging view that exposed
// the letter-case problem in Section 9.
func (p *Project) FeatureImportance() ([]ml.Importance, error) {
	switch m := p.matcher.(type) {
	case *ml.DecisionTree:
		return m.FeatureImportance()
	case *ml.RandomForest:
		return m.FeatureImportance()
	case nil:
		return nil, fmt.Errorf("core: train before FeatureImportance")
	default:
		return nil, fmt.Errorf("core: %s does not expose feature importance", m.Name())
	}
}

// PRCurve sweeps the trained matcher's decision threshold over the
// labeled data, returning the precision/recall operating points.
func (p *Project) PRCurve() ([]ml.PRPoint, error) {
	pm, ok := p.matcher.(ml.ProbabilisticMatcher)
	if !ok {
		return nil, fmt.Errorf("core: the trained matcher does not expose probabilities")
	}
	ds, err := p.trainingData()
	if err != nil {
		return nil, err
	}
	return ml.PRCurve(pm, ds)
}

// RuleCoverage reports, over the current candidate set, how many pairs
// each sure and negative rule decides (and how many no rule touches, key
// "") — the provenance view for rule-heavy workflows.
func (p *Project) RuleCoverage() (sure, negative map[string]int, err error) {
	if p.candidates == nil {
		return nil, nil, fmt.Errorf("core: run Block before RuleCoverage")
	}
	return p.sureRules.Coverage(p.candidates), p.negRules.Coverage(p.candidates), nil
}
