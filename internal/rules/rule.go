package rules

import (
	"fmt"

	"emgo/internal/block"
	"emgo/internal/table"
)

// Verdict is a rule's opinion about a record pair.
type Verdict int

const (
	// NoOpinion means the rule does not fire for this pair.
	NoOpinion Verdict = iota
	// Match declares the pair a sure match (positive rule).
	Match
	// NonMatch vetoes the pair (negative rule).
	NonMatch
)

// String returns a readable verdict name.
func (v Verdict) String() string {
	switch v {
	case Match:
		return "match"
	case NonMatch:
		return "non-match"
	default:
		return "no-opinion"
	}
}

// Rule inspects a record pair and renders a verdict.
type Rule interface {
	// Apply judges one pair of rows (from the tables the rule was bound
	// to at construction).
	Apply(left, right table.Row) Verdict
	// Name identifies the rule for provenance.
	Name() string
}

// equalRule fires a verdict when the (transformed) key texts of both sides
// are non-empty and equal.
type equalRule struct {
	name           string
	lj, rj         int
	leftTransform  func(string) string
	rightTransform func(string) string
	verdict        Verdict
}

// NewEqual binds an equality rule to the given tables and columns. A nil
// transform is the identity; a transform returning "" (or a null cell)
// withholds opinion. verdict is rendered when the keys are equal —
// Match gives the paper's positive rules M1 ("second part of
// UniqueAwardNumber equals Award Number") and the later award-number =
// project-number rule.
func NewEqual(name string, left *table.Table, leftCol string, lt func(string) string,
	right *table.Table, rightCol string, rt func(string) string, verdict Verdict) (Rule, error) {
	lj, err := left.Col(leftCol)
	if err != nil {
		return nil, err
	}
	rj, err := right.Col(rightCol)
	if err != nil {
		return nil, err
	}
	if verdict == NoOpinion {
		return nil, fmt.Errorf("rules: equality rule %q needs a verdict", name)
	}
	return &equalRule{name: name, lj: lj, rj: rj, leftTransform: lt, rightTransform: rt, verdict: verdict}, nil
}

func (r *equalRule) Name() string { return r.name }

func (r *equalRule) Apply(left, right table.Row) Verdict {
	a := block.KeyText(left[r.lj], r.leftTransform)
	b := block.KeyText(right[r.rj], r.rightTransform)
	if a == "" || b == "" {
		return NoOpinion
	}
	if a == b {
		return r.verdict
	}
	return NoOpinion
}

// comparableMismatchRule implements the Section 12 negative rule: when the
// two identifiers are "comparable" (match the same known pattern) and are
// NOT equal, the pair is a non-match.
type comparableMismatchRule struct {
	name           string
	lj, rj         int
	leftTransform  func(string) string
	rightTransform func(string) string
	patterns       Set
}

// NewComparableMismatch builds the negative pattern rule over the given
// columns and known pattern set.
func NewComparableMismatch(name string, left *table.Table, leftCol string, lt func(string) string,
	right *table.Table, rightCol string, rt func(string) string, patterns Set) (Rule, error) {
	lj, err := left.Col(leftCol)
	if err != nil {
		return nil, err
	}
	rj, err := right.Col(rightCol)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("rules: comparable-mismatch rule %q needs patterns", name)
	}
	return &comparableMismatchRule{name: name, lj: lj, rj: rj, leftTransform: lt, rightTransform: rt, patterns: patterns}, nil
}

func (r *comparableMismatchRule) Name() string { return r.name }

func (r *comparableMismatchRule) Apply(left, right table.Row) Verdict {
	a := block.KeyText(left[r.lj], r.leftTransform)
	b := block.KeyText(right[r.rj], r.rightTransform)
	if a == "" || b == "" {
		return NoOpinion
	}
	if a != b && r.patterns.Comparable(a, b) {
		return NonMatch
	}
	return NoOpinion
}

// Func wraps an arbitrary predicate as a rule — the scripting escape hatch.
type Func struct {
	Label   string
	Verdict Verdict
	// Fire reports whether the rule's verdict applies to the pair.
	Fire func(left, right table.Row) bool
}

// Name implements Rule.
func (r Func) Name() string {
	if r.Label != "" {
		return r.Label
	}
	return "func"
}

// Apply implements Rule.
func (r Func) Apply(left, right table.Row) Verdict {
	if r.Fire != nil && r.Fire(left, right) {
		return r.Verdict
	}
	return NoOpinion
}
