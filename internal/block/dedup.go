package block

import (
	"context"

	"emgo/internal/table"
)

// Dedup supports the single-table EM scenario the paper lists among the
// common cases ("matching tuples within a single table", Section 2): the
// table is blocked against itself and self/symmetric pairs are removed,
// leaving each unordered candidate pair once with A < B.
func Dedup(ctx context.Context, t *table.Table, blockers ...Blocker) (*CandidateSet, error) {
	cand, err := UnionBlockCtx(ctx, t, t, blockers...)
	if err != nil {
		return nil, err
	}
	out := NewCandidateSet(t, t)
	for _, p := range cand.Pairs() {
		switch {
		case p.A == p.B:
			// Trivial self pair.
		case p.A < p.B:
			out.Add(p)
		default:
			out.Add(Pair{A: p.B, B: p.A})
		}
	}
	return out, nil
}
