package rules

import (
	"context"
	"slices"
	"sort"

	"emgo/internal/block"
	"emgo/internal/table"
)

// keyedJoin is an engine of equality-Match rules compiled against one
// right table: per rule, block's keyed-equality index of it. The right
// transform runs once per right row there instead of once per pair in
// Apply. It is immutable once built.
type keyedJoin struct {
	rules []*equalRule
	index []block.KeyIndex
}

// keyable returns the engine's rules as equality-Match rules, or nil when
// any rule is something else: only then is "some rule fires" the same as
// "the pair is a Match", with no earlier NonMatch or opaque predicate to
// consult.
func keyable(rs []Rule) []*equalRule {
	out := make([]*equalRule, len(rs))
	for k, r := range rs {
		eq, ok := r.(*equalRule)
		if !ok || eq.verdict != Match {
			return nil
		}
		out[k] = eq
	}
	return out
}

// Bind returns the engine bound to right: its rules, with the keyed join
// against right built now, once, so SureMatches/SureHitsCtx over right
// only look keys up — or the build's error. e is left as it is. The
// bound engine answers about right only, and takes no new rule; an
// engine already bound to right is returned as it is.
func (e *Engine) Bind(ctx context.Context, right *table.Table) (*Engine, error) {
	if e.right == right {
		return e, nil
	}
	j, err := buildJoin(ctx, e.rules, right)
	if err != nil {
		return nil, err
	}
	return &Engine{rules: slices.Clip(e.rules), right: right, join: j}, nil
}

// buildJoin compiles rs against right; nil when they are not keyable.
func buildJoin(ctx context.Context, rs []Rule, right *table.Table) (*keyedJoin, error) {
	eqs := keyable(rs)
	if len(eqs) == 0 {
		return nil, nil
	}
	j := &keyedJoin{rules: eqs, index: make([]block.KeyIndex, len(eqs))}
	for k, r := range eqs {
		idx, err := block.BuildKeyIndex(ctx, right, r.rj, r.rightTransform)
		if err != nil {
			return nil, err
		}
		j.index[k] = idx
	}
	return j, nil
}

// hits returns the join's matches over left: per left row, B ascending,
// each under the first rule whose keys agree. A lookup is a fraction of
// a microsecond, so rows are not fanned out; ctx is consulted every few
// hundred of them.
func (j *keyedJoin) hits(ctx context.Context, left *table.Table) ([]Hit, error) {
	var out []Hit
	for i := 0; i < left.Len(); i++ {
		if i%512 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row, start, fired := left.Row(i), len(out), 0
		for k, r := range j.rules {
			key := block.KeyText(row[r.lj], r.leftTransform)
			if key == "" {
				continue
			}
			bs := j.index[k][key]
			if len(bs) > 0 {
				fired++
			}
			for _, b := range bs {
				out = append(out, Hit{Pair: block.Pair{A: i, B: b}, Rule: r.name})
			}
		}
		if fired < 2 {
			continue
		}
		// Several rules fired for this row: its hits are B-ascending per
		// rule, rules in engine order. A stable sort by B keeps the
		// earliest rule first among duplicates of a pair, and the
		// compaction keeps only that one.
		mine := out[start:]
		sort.SliceStable(mine, func(x, y int) bool { return mine[x].Pair.B < mine[y].Pair.B })
		n := 0
		for _, h := range mine {
			if n == 0 || h.Pair.B != mine[n-1].Pair.B {
				mine[n] = h
				n++
			}
		}
		out = out[:start+n]
	}
	return out, nil
}
