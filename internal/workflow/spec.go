package workflow

import (
	"context"
	"encoding/json"
	"fmt"

	"emgo/internal/block"
	"emgo/internal/feature"
	"emgo/internal/ml"
	"emgo/internal/retry"
	"emgo/internal/rules"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// This file implements workflow packaging — the Section 12 "Next Steps"
// requirement: "the UMETRICS team wanted us to package the matcher so
// that they could move it into the UMETRICS repository to do matching for
// other data slices ... the EM workflow is rather complex. It has rules
// at multiple places and a machine-learning-based matcher. So we need to
// find out how to represent it effectively."
//
// A Spec is that representation: a declarative, JSON-serializable
// description of an entire workflow — blockers, positive and negative
// rules, the feature set, the fitted imputer, and the trained matcher.
// String transforms (key extraction, normalization) are code, so they
// travel by name through a Transforms registry supplied at build time.

// Transforms maps transform names to implementations; the deploying
// application registers the same names the spec references.
type Transforms map[string]func(string) string

// BlockerSpec describes one blocker.
type BlockerSpec struct {
	// Type is "attr_equiv", "overlap", or "overlap_coeff".
	Type     string `json:"type"`
	LeftCol  string `json:"left_col"`
	RightCol string `json:"right_col"`
	// LeftTransform / RightTransform are Transforms registry names
	// (attr_equiv only; empty = identity).
	LeftTransform  string `json:"left_transform,omitempty"`
	RightTransform string `json:"right_transform,omitempty"`
	// Tokenizer is "word" or "qgram3" (overlap blockers).
	Tokenizer string `json:"tokenizer,omitempty"`
	// Threshold is the integer K for "overlap".
	Threshold int `json:"threshold,omitempty"`
	// Coefficient is the [0,1] threshold for "overlap_coeff".
	Coefficient float64 `json:"coefficient,omitempty"`
	Normalize   bool    `json:"normalize,omitempty"`
}

// RuleSpec describes one declarative rule.
type RuleSpec struct {
	// Type is "equal" or "comparable_mismatch".
	Type     string `json:"type"`
	Name     string `json:"name"`
	LeftCol  string `json:"left_col"`
	RightCol string `json:"right_col"`
	// LeftTransform / RightTransform are Transforms registry names.
	LeftTransform  string `json:"left_transform,omitempty"`
	RightTransform string `json:"right_transform,omitempty"`
	// Verdict is "match" or "non_match" ("equal" rules only).
	Verdict string `json:"verdict,omitempty"`
	// Patterns is the identifier pattern set ("comparable_mismatch").
	Patterns []string `json:"patterns,omitempty"`
}

// Spec is a complete serialized workflow.
type Spec struct {
	Name          string               `json:"name"`
	Blockers      []BlockerSpec        `json:"blockers"`
	SureRules     []RuleSpec           `json:"sure_rules,omitempty"`
	NegativeRules []RuleSpec           `json:"negative_rules,omitempty"`
	Features      []feature.Descriptor `json:"features,omitempty"`
	ImputerMeans  []float64            `json:"imputer_means,omitempty"`
	Matcher       *ml.MatcherSpec      `json:"matcher,omitempty"`
}

// Package is the packaging step: a copy of s carrying a trained matcher —
// fs's feature descriptors, im's means and m exported — ready to Marshal
// and ship. It refuses a missing part and a matcher that does not
// serialize.
func (s *Spec) Package(fs *feature.Set, im *feature.Imputer, m ml.Matcher) (*Spec, error) {
	if fs == nil || im == nil || m == nil {
		return nil, fmt.Errorf("workflow: packaging %q needs features, imputer, and matcher", s.Name)
	}
	descs, err := fs.Descriptors()
	if err != nil {
		return nil, fmt.Errorf("workflow: package %q features: %w", s.Name, err)
	}
	ms, err := ml.ExportMatcher(m)
	if err != nil {
		return nil, fmt.Errorf("workflow: package %q matcher: %w", s.Name, err)
	}
	out := *s
	out.Features, out.ImputerMeans, out.Matcher = descs, im.Means(), ms
	return &out, nil
}

// Marshal renders the spec as JSON.
func (s *Spec) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseSpec parses a JSON workflow spec.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("workflow: parse spec: %w", err)
	}
	return &s, nil
}

// lookup resolves a transform name ("" is the identity transform, nil).
func (t Transforms) lookup(name string) (func(string) string, error) {
	if name == "" {
		return nil, nil
	}
	fn, ok := t[name]
	if !ok {
		return nil, fmt.Errorf("workflow: unknown transform %q", name)
	}
	return fn, nil
}

// lookupTokenizer resolves a tokenizer name.
func lookupTokenizer(name string) (tokenize.Tokenizer, error) {
	switch name {
	case "", "word":
		return tokenize.Word{}, nil
	case "ws":
		return tokenize.Whitespace{}, nil
	case "qgram3":
		return tokenize.QGram{Q: 3}, nil
	case "qgram2":
		return tokenize.QGram{Q: 2}, nil
	default:
		return nil, fmt.Errorf("workflow: unknown tokenizer %q", name)
	}
}

// buildBlocker constructs the blocker a spec describes.
func buildBlocker(bs BlockerSpec, transforms Transforms) (block.Blocker, error) {
	switch bs.Type {
	case "attr_equiv":
		lt, err := transforms.lookup(bs.LeftTransform)
		if err != nil {
			return nil, err
		}
		rt, err := transforms.lookup(bs.RightTransform)
		if err != nil {
			return nil, err
		}
		return block.AttrEquiv{
			LeftCol: bs.LeftCol, RightCol: bs.RightCol,
			LeftTransform: lt, RightTransform: rt,
		}, nil
	case "overlap":
		tok, err := lookupTokenizer(bs.Tokenizer)
		if err != nil {
			return nil, err
		}
		return block.Overlap{
			LeftCol: bs.LeftCol, RightCol: bs.RightCol,
			Tokenizer: tok, Threshold: bs.Threshold, Normalize: bs.Normalize,
		}, nil
	case "overlap_coeff":
		tok, err := lookupTokenizer(bs.Tokenizer)
		if err != nil {
			return nil, err
		}
		return block.OverlapCoefficient{
			LeftCol: bs.LeftCol, RightCol: bs.RightCol,
			Tokenizer: tok, Threshold: bs.Coefficient, Normalize: bs.Normalize,
		}, nil
	default:
		return nil, fmt.Errorf("workflow: unknown blocker type %q", bs.Type)
	}
}

// buildRule constructs the rule a spec describes, bound to the tables.
func buildRule(rs RuleSpec, left, right *table.Table, transforms Transforms) (rules.Rule, error) {
	lt, err := transforms.lookup(rs.LeftTransform)
	if err != nil {
		return nil, err
	}
	rt, err := transforms.lookup(rs.RightTransform)
	if err != nil {
		return nil, err
	}
	switch rs.Type {
	case "equal":
		var verdict rules.Verdict
		switch rs.Verdict {
		case "match":
			verdict = rules.Match
		case "non_match":
			verdict = rules.NonMatch
		default:
			return nil, fmt.Errorf("workflow: rule %q has unknown verdict %q", rs.Name, rs.Verdict)
		}
		return rules.NewEqual(rs.Name, left, rs.LeftCol, lt, right, rs.RightCol, rt, verdict)
	case "comparable_mismatch":
		patterns := make(rules.Set, len(rs.Patterns))
		for i, p := range rs.Patterns {
			patterns[i] = rules.Pattern(p)
		}
		return rules.NewComparableMismatch(rs.Name, left, rs.LeftCol, lt, right, rs.RightCol, rt, patterns)
	default:
		return nil, fmt.Errorf("workflow: unknown rule type %q", rs.Type)
	}
}

// BuildCtx is Build; ctx and policy are ignored. It stays only because
// bench/embench/layers.go calls it, and goes with the next change to
// that module.
func (s *Spec) BuildCtx(_ context.Context, left, right *table.Table, transforms Transforms, _ retry.Policy) (*Workflow, error) {
	return s.Build(left, right, transforms)
}

// Build instantiates the workflow a spec describes, with its rules over
// the given table pair. transforms must supply every transform name the
// spec references; an unknown one is an error naming it. It binds
// nothing: each run of the workflow builds what it needs from the right
// table, and a caller that runs many left tables against one right table
// deploys it (Deploy).
func (s *Spec) Build(left, right *table.Table, transforms Transforms) (*Workflow, error) {
	w := &Workflow{
		Name:          s.Name,
		SureRules:     rules.NewEngine(),
		NegativeRules: rules.NewEngine(),
	}
	for _, bs := range s.Blockers {
		b, err := buildBlocker(bs, transforms)
		if err != nil {
			return nil, err
		}
		w.Blockers = append(w.Blockers, b)
	}
	for _, rs := range s.SureRules {
		r, err := buildRule(rs, left, right, transforms)
		if err != nil {
			return nil, err
		}
		w.SureRules.Add(r)
	}
	for _, rs := range s.NegativeRules {
		r, err := buildRule(rs, left, right, transforms)
		if err != nil {
			return nil, err
		}
		w.NegativeRules.Add(r)
	}
	if s.Matcher != nil {
		if len(s.Features) == 0 {
			return nil, fmt.Errorf("workflow: spec has a matcher but no features")
		}
		if len(s.ImputerMeans) != len(s.Features) {
			return nil, fmt.Errorf("workflow: spec has %d imputer means for %d features",
				len(s.ImputerMeans), len(s.Features))
		}
		fs, err := feature.FromDescriptors(s.Features)
		if err != nil {
			return nil, err
		}
		m, err := ml.ImportMatcher(s.Matcher)
		if err != nil {
			return nil, err
		}
		// A tree's own feature list bounds its splits on import; the spec's
		// features are what a run computes, and a split past them would
		// fail every Predict.
		trees := []*ml.TreeSpec{s.Matcher.Tree}
		if s.Matcher.Forest != nil {
			trees = append(trees, s.Matcher.Forest.Trees...)
		}
		for _, t := range trees {
			if t == nil {
				continue
			}
			if err := splitsWithin(t.Root, len(s.Features)); err != nil {
				return nil, err
			}
		}
		w.Features = fs
		w.Imputer = feature.ImputerFromMeans(s.ImputerMeans)
		w.Matcher = m
	}
	return w, nil
}

// splitsWithin fails on the first split under n, in node order, that
// tests a feature outside [0, width).
func splitsWithin(n *ml.NodeSpec, width int) error {
	if n == nil || n.Leaf {
		return nil
	}
	if n.Feature < 0 || n.Feature >= width {
		return fmt.Errorf("workflow: spec's matcher splits on feature %d, outside its %d features", n.Feature, width)
	}
	if err := splitsWithin(n.Left, width); err != nil {
		return err
	}
	return splitsWithin(n.Right, width)
}

// Deploy returns a shallow copy of w serving matcher m (nil: rules only)
// over right: its sure rules, blockers and feature set are bound to right
// — the keyed join, the columns and key indexes and the cells built here,
// once — so a run over right only probes, and a run over any other right
// table is an error. The blockers bind first, and the feature set reads
// their columns where it tokenises a right column the same way, so each
// column of right is tokenised once per token set.
//
// The learned stage is narrowed to what m reads (ml.Narrow): the copy's
// Features hold only those features, in order, its Imputer only their
// means, and its Matcher is m renumbered onto them, so a vector is as wide
// as the read count. m reads w's full feature set, as a spec's matcher
// does. The narrowing is the deployment's own: the quality profile still
// observes every feature, and a deployment deployed again narrows from
// the sets it was narrowed from, not from its own. w is left as it is:
// Deploy binds copies. It returns the first bind error: a deployment that
// cannot block does not start.
func (w *Workflow) Deploy(ctx context.Context, m ml.Matcher, right *table.Table) (*Workflow, error) {
	full := w.full()
	full.matcher = m
	d := *w
	d.Features, d.Imputer, d.Matcher, d.trained = full.features, full.imputer, m, &full
	if m != nil && (full.features == nil || full.imputer == nil) {
		return nil, fmt.Errorf("workflow %s: matcher deployed without features/imputer", w.Name)
	}
	var err error
	if w.SureRules != nil {
		if d.SureRules, err = w.SureRules.Bind(ctx, right); err != nil {
			return nil, fmt.Errorf("workflow %s: bind sure rules: %w", w.Name, err)
		}
	}
	if d.Blockers, err = block.Bind(ctx, right, w.Blockers...); err != nil {
		return nil, fmt.Errorf("workflow %s: bind blockers: %w", w.Name, err)
	}
	if m != nil {
		narrow, err := full.narrow()
		if err != nil {
			return nil, fmt.Errorf("workflow %s: %w", w.Name, err)
		}
		if d.Features, err = narrow.features.Bind(ctx, right, block.Columns(d.Blockers)...); err != nil {
			return nil, fmt.Errorf("workflow %s: bind feature cells: %w", w.Name, err)
		}
		d.Imputer, d.Matcher = narrow.imputer, narrow.matcher
	}
	return &d, nil
}
