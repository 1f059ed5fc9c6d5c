package rules

import (
	"context"
	"fmt"
	"slices"

	"emgo/internal/block"
	"emgo/internal/parallel"
	"emgo/internal/table"
)

// Engine evaluates an ordered rule list; the first rule with an opinion
// decides a pair.
type Engine struct {
	rules []Rule

	// right and join are set on an engine Bind returned: the one right
	// table it answers about, and the keyed form of its rules against it
	// (see keyed.go) — nil when they cannot be keyed.
	right *table.Table
	join  *keyedJoin
}

// NewEngine builds an engine over the given rules (evaluated in order).
func NewEngine(rs ...Rule) *Engine {
	return &Engine{rules: rs}
}

// Add appends a rule. A bound engine takes none: its keyed join is built.
func (e *Engine) Add(r Rule) {
	if e.right != nil {
		panic("rules: Add on a bound engine")
	}
	e.rules = append(e.rules, r)
}

// Len returns the rule count.
func (e *Engine) Len() int { return len(e.rules) }

// Rules returns the engine's rules in evaluation order.
func (e *Engine) Rules() []Rule { return slices.Clip(e.rules) }

// Judge returns the engine's verdict for one row pair.
func (e *Engine) Judge(left, right table.Row) Verdict {
	for _, r := range e.rules {
		if v := r.Apply(left, right); v != NoOpinion {
			return v
		}
	}
	return NoOpinion
}

// JudgeWithRule is Judge but also reports which rule fired ("" when none).
func (e *Engine) JudgeWithRule(left, right table.Row) (Verdict, string) {
	for _, r := range e.rules {
		if v := r.Apply(left, right); v != NoOpinion {
			return v, r.Name()
		}
	}
	return NoOpinion, ""
}

// Hit is one sure match and the name of the rule that declared it — the
// first rule, in engine order, with an opinion on the pair.
type Hit struct {
	Pair block.Pair
	Rule string
}

// SureMatches returns the pairs of left × right the engine declares
// Match — how the Figure 9 workflow pulls sure matches directly from the
// input tables, bypassing blocking — in (A, then B) ascending order. See
// SureHitsCtx for how they are found. Rules must be pure functions of
// the row pair (every rule in this package is); a panicking rule panics
// here, and so does a bound engine asked about another right table.
func (e *Engine) SureMatches(left, right *table.Table) *block.CandidateSet {
	hits, err := e.SureHitsCtx(context.Background(), left, right)
	if err != nil {
		// Background context: the only possible errors are a rule panic
		// recovered on a scan worker and a table the engine is not bound to.
		panic(err)
	}
	out := block.NewCandidateSet(left, right)
	for _, h := range hits {
		out.Add(h.Pair)
	}
	return out
}

// SureHitsCtx is SureMatches with each pair's deciding rule, under ctx.
// An engine whose rules are all equality rules with a Match verdict is a
// keyed join: the right table's keys are indexed — by Bind, or per call
// for an engine nobody bound — and each left row looks its keys up, so
// the cost is linear in the tables plus the hits. Any other engine — a
// Func rule, a NonMatch rule that could pre-empt a Match — scans every
// pair with JudgeWithRule, in parallel over left rows. Both return the
// same hits in the same order. A bound engine asked about another right
// table returns an error naming both.
func (e *Engine) SureHitsCtx(ctx context.Context, left, right *table.Table) ([]Hit, error) {
	join := e.join
	if e.right != nil {
		if err := block.CheckBound(e.right, right); err != nil {
			return nil, fmt.Errorf("rules: %w", err)
		}
	} else {
		var err error
		if join, err = buildJoin(ctx, e.rules, right); err != nil {
			return nil, err
		}
	}
	if join != nil {
		return join.hits(ctx, left)
	}
	perRow := make([][]Hit, left.Len())
	err := parallel.ForCtx(ctx, left.Len(), func(i int) error {
		row := left.Row(i)
		for j := 0; j < right.Len(); j++ {
			if v, name := e.JudgeWithRule(row, right.Row(j)); v == Match {
				perRow[i] = append(perRow[i], Hit{Pair: block.Pair{A: i, B: j}, Rule: name})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Hit
	for _, hits := range perRow {
		out = append(out, hits...)
	}
	return out, nil
}

// FilterMatches applies the engine's negative rules to a predicted match
// set: pairs the engine judges NonMatch are removed (the Figure 10 step
// that flips learner false positives). It returns the surviving set and
// the number vetoed.
func (e *Engine) FilterMatches(pred *block.CandidateSet) (*block.CandidateSet, int) {
	vetoed := 0
	out := pred.Filter(func(p block.Pair) bool {
		if e.Judge(pred.Left.Row(p.A), pred.Right.Row(p.B)) == NonMatch {
			vetoed++
			return false
		}
		return true
	})
	return out, vetoed
}

// Coverage counts, for every pair in the candidate set, which rule fired
// (by name) and how often, plus how many pairs no rule decided
// (map key "") — the per-rule provenance view a complex rule-plus-learner
// workflow needs when the teams debate what each rule contributes.
func (e *Engine) Coverage(cand *block.CandidateSet) map[string]int {
	out := make(map[string]int, len(e.rules)+1)
	for _, p := range cand.Pairs() {
		_, name := e.JudgeWithRule(cand.Left.Row(p.A), cand.Right.Row(p.B))
		out[name]++
	}
	return out
}

// MarkPairs judges every pair in the candidate set and returns the pairs
// per verdict (NoOpinion pairs are those the learner must decide).
func (e *Engine) MarkPairs(cand *block.CandidateSet) (match, nonMatch, undecided *block.CandidateSet) {
	match = block.NewCandidateSet(cand.Left, cand.Right)
	nonMatch = block.NewCandidateSet(cand.Left, cand.Right)
	undecided = block.NewCandidateSet(cand.Left, cand.Right)
	for _, p := range cand.Pairs() {
		switch e.Judge(cand.Left.Row(p.A), cand.Right.Row(p.B)) {
		case Match:
			match.Add(p)
		case NonMatch:
			nonMatch.Add(p)
		default:
			undecided.Add(p)
		}
	}
	return match, nonMatch, undecided
}
