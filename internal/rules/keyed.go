package rules

import (
	"context"
	"sort"

	"emgo/internal/block"
	"emgo/internal/table"
)

// keyedJoin is an engine of equality-Match rules compiled against one
// right table: per rule, the right rows under each non-empty key text,
// ascending. The right transform runs once per right row here instead of
// once per pair in Apply. It is immutable once built.
type keyedJoin struct {
	right *table.Table
	// rows is right.Len() when the index was built: tables grow by
	// Append, and a grown table needs a new index.
	rows  int
	rules []*equalRule
	index []map[string][]int
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

// Bind builds the keyed join against right now, so the first
// SureMatches/SureHitsCtx call over it does not pay for the index (a
// server binds its reference table at start-up). It is a no-op for an
// engine that cannot be keyed.
func (e *Engine) Bind(right *table.Table) { e.joinFor(right) }

// joinFor returns the keyed join against right, building it when the
// engine has none for this table; nil when the engine is not keyable.
// Callers racing on a cold engine wait for one build.
func (e *Engine) joinFor(right *table.Table) *keyedJoin {
	e.mu.Lock()
	defer e.mu.Unlock()
	if j := e.join; j != nil && j.right == right && j.rows == right.Len() {
		return j
	}
	eqs := keyable(e.rules)
	if len(eqs) == 0 {
		return nil
	}
	j := &keyedJoin{right: right, rows: right.Len(), rules: eqs, index: make([]map[string][]int, len(eqs))}
	for k, r := range eqs {
		idx := make(map[string][]int)
		for b := 0; b < right.Len(); b++ {
			if key := keyText(right.Row(b)[r.rj], r.rightTransform); key != "" {
				idx[key] = append(idx[key], b)
			}
		}
		j.index[k] = idx
	}
	e.join = j
	return j
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
			key := keyText(row[r.lj], r.leftTransform)
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
