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
	"context"
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
	left  *table.Table
	right *table.Table

	// wf is the workflow Match runs: the blockers and rules added to the
	// project, the features it generated, and the matcher and imputer
	// Train installs together.
	wf *workflow.Workflow

	candidates *block.CandidateSet
	labels     *label.Store

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
		left:  left,
		right: right,
		wf: &workflow.Workflow{
			Name:          name,
			SureRules:     rules.NewEngine(),
			NegativeRules: rules.NewEngine(),
		},
		labels: label.NewStore(),
		seed:   seed,
		rng:    rand.New(rand.NewSource(seed)),
	}, nil
}

// Name returns the project name.
func (p *Project) Name() string { return p.wf.Name }

// Left and Right return the input tables.
func (p *Project) Left() *table.Table  { return p.left }
func (p *Project) Right() *table.Table { return p.right }

// Profile returns column profiles of both tables — the "understanding the
// data" step (Section 4 of the paper).
func (p *Project) Profile() (left, right *profile.Report) {
	return profile.Profile(p.left), profile.Profile(p.right)
}

// AddBlocker appends a blocker; Block unions all of them.
func (p *Project) AddBlocker(b block.Blocker) { p.wf.Blockers = append(p.wf.Blockers, b) }

// AddSureRule appends a positive rule applied directly to the input
// tables; its matches bypass blocking and the learner.
func (p *Project) AddSureRule(r rules.Rule) { p.wf.SureRules.Add(r) }

// AddNegativeRule appends a veto rule applied to the learner's predicted
// matches.
func (p *Project) AddNegativeRule(r rules.Rule) { p.wf.NegativeRules.Add(r) }

// AddSpec appends the blockers, sure rules and negative rules of a
// workflow spec, built over the project's tables with transforms
// resolving the spec's transform names — so a project can start from a
// packaged workflow such as umetrics.FigureSpec. A spec carrying a
// matcher is refused: a project trains its own.
func (p *Project) AddSpec(spec *workflow.Spec, transforms workflow.Transforms) error {
	if spec.Matcher != nil {
		return fmt.Errorf("core: spec %q carries a matcher; a project trains its own", spec.Name)
	}
	w, err := spec.Build(p.left, p.right, transforms)
	if err != nil {
		return err
	}
	p.wf.Blockers = append(p.wf.Blockers, w.Blockers...)
	for _, r := range w.SureRules.Rules() {
		p.wf.SureRules.Add(r)
	}
	for _, r := range w.NegativeRules.Rules() {
		p.wf.NegativeRules.Add(r)
	}
	return nil
}

// Block runs the blocking pipeline and stores (and returns) the candidate
// set.
func (p *Project) Block() (*block.CandidateSet, error) {
	if len(p.wf.Blockers) == 0 {
		return nil, fmt.Errorf("core: project %q has no blockers", p.wf.Name)
	}
	cand, err := block.UnionBlock(p.left, p.right, p.wf.Blockers...)
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
	return SampleUnlabelled(p.candidates, p.labels, n, p.rng)
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
	p.wf.Features = fs
	return nil
}

// AddFeature appends a custom feature (the "patching" escape hatch).
func (p *Project) AddFeature(f feature.Feature) error {
	if p.wf.Features == nil {
		p.wf.Features = &feature.Set{}
	}
	return p.wf.Features.Add(f)
}

// Features returns the current feature set (nil before GenerateFeatures).
func (p *Project) Features() *feature.Set { return p.wf.Features }

// SelectMatcher cross-validates the standard matcher suite on the labeled
// data and returns the ranked results; the first entry wins.
func (p *Project) SelectMatcher(folds int) ([]ml.CVResult, error) {
	ds, _, _, err := TrainingData(p.left, p.right, p.labels, p.wf.SureRules, p.wf.Features)
	if err != nil {
		return nil, err
	}
	return ml.SelectMatcherCtx(context.Background(), ml.DefaultFactories(p.seed), ds, folds, p.seed)
}

// Train fits a fresh matcher of the named kind ("decision_tree",
// "random_forest", ...) on the labeled data and installs it, with the
// imputer fitted on the same data, as the project's matcher: SelectMatcher,
// DebugLabels and PRCurve fit on the labels too, but install nothing.
func (p *Project) Train(matcherName string) error {
	f, err := ml.FactoryByName(matcherName, p.seed)
	if err != nil {
		return err
	}
	ds, _, im, err := TrainingData(p.left, p.right, p.labels, p.wf.SureRules, p.wf.Features)
	if err != nil {
		return err
	}
	m := f.New()
	if err := m.Fit(ds); err != nil {
		return err
	}
	p.wf.Imputer, p.wf.Matcher = im, m
	return nil
}

// Spec packages what the project trained for deployment: base's blockers
// and rules (the project's own are not carried) with the project's
// features, imputer and matcher (workflow.Spec.Package), so before Train
// it errors.
func (p *Project) Spec(base *workflow.Spec) (*workflow.Spec, error) {
	return base.Package(p.wf.Features, p.wf.Imputer, p.wf.Matcher)
}

// DebugLabels runs leave-one-out label debugging and returns the pairs
// whose labels disagree with the model's prediction (Section 8's
// label-debugging step).
func (p *Project) DebugLabels() ([]block.Pair, error) {
	ds, pairs, _, err := TrainingData(p.left, p.right, p.labels, p.wf.SureRules, p.wf.Features)
	if err != nil {
		return nil, err
	}
	return FlagLabels(context.Background(), ds, pairs, p.seed)
}

// Match runs the project's workflow — sure rules, blocking, the trained
// matcher, negative rules — and returns the result.
func (p *Project) Match() (*workflow.Result, error) {
	if len(p.wf.Blockers) == 0 {
		return nil, fmt.Errorf("core: project %q has no blockers", p.wf.Name)
	}
	return p.wf.Run(p.left, p.right)
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
	switch m := p.wf.Matcher.(type) {
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
	pm, ok := p.wf.Matcher.(ml.ProbabilisticMatcher)
	if !ok {
		return nil, fmt.Errorf("core: the trained matcher does not expose probabilities")
	}
	ds, _, _, err := TrainingData(p.left, p.right, p.labels, p.wf.SureRules, p.wf.Features)
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
	return p.wf.SureRules.Coverage(p.candidates), p.wf.NegativeRules.Coverage(p.candidates), nil
}
