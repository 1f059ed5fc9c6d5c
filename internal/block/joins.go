package block

import (
	"context"
	"fmt"
	"sort"

	"emgo/internal/simfunc"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// This file adds the blocking machinery beyond the three blockers the case
// study uses: a Jaccard similarity join (the "string filtering techniques"
// PyMatcher's blockers use under the hood — footnote 4), a
// sorted-neighborhood blocker, and sequential blocking over an existing
// candidate set.

// JaccardJoin is a similarity-join blocker: a pair survives when the
// Jaccard similarity of the tokenized blocking attributes reaches
// Threshold. Like the overlap blockers it only looks at pairs that share a
// token (a pair sharing none has similarity 0), and judges each from the
// probe's counts by the comparison simfunc.Jaccard itself would make.
type JaccardJoin struct {
	LeftCol, RightCol string
	Tokenizer         tokenize.Tokenizer
	Threshold         float64
	Normalize         bool
}

// Name implements Blocker.
func (b JaccardJoin) Name() string {
	return fmt.Sprintf("jaccard_join(%s~%s,t=%.2f)", b.LeftCol, b.RightCol, b.Threshold)
}

// Block implements Blocker.
func (b JaccardJoin) Block(ctx context.Context, left, right *table.Table) (*CandidateSet, error) {
	return blockUnbound(ctx, b, left, right)
}

func (b JaccardJoin) join() (tokenJoin, error) {
	if b.Tokenizer == nil {
		return tokenJoin{}, fmt.Errorf("block: jaccard join needs a tokenizer")
	}
	if b.Threshold <= 0 || b.Threshold > 1 {
		return tokenJoin{}, fmt.Errorf("block: jaccard threshold must be in (0,1], got %v", b.Threshold)
	}
	t := b.Threshold
	return newTokenJoin(b.LeftCol, b.RightCol, b.Tokenizer, b.Normalize,
		func(inter, la, lb int) bool { return simfunc.JaccardSizes(inter, la, lb) >= t }), nil
}

// SortedNeighborhood is the classic sorted-neighborhood blocker: both
// tables are merged, sorted by a blocking key, and every left/right pair
// within a sliding window of size Window becomes a candidate.
type SortedNeighborhood struct {
	LeftCol, RightCol string
	// Key maps the raw attribute text to the sort key (nil = identity);
	// e.g. a soundex or prefix key.
	Key func(string) string
	// Window is the sliding-window size over the merged sorted list
	// (default 3; must be >= 2 to ever pair records).
	Window int
}

// Name implements Blocker.
func (b SortedNeighborhood) Name() string {
	return fmt.Sprintf("sorted_neighborhood(%s~%s,w=%d)", b.LeftCol, b.RightCol, b.Window)
}

// Block implements Blocker.
func (b SortedNeighborhood) Block(ctx context.Context, left, right *table.Table) (*CandidateSet, error) {
	window := b.Window
	if window == 0 {
		window = 3
	}
	if window < 2 {
		return nil, fmt.Errorf("block: sorted neighborhood window %d < 2", window)
	}
	lj, err := left.Col(b.LeftCol)
	if err != nil {
		return nil, err
	}
	rj, err := right.Col(b.RightCol)
	if err != nil {
		return nil, err
	}
	type entry struct {
		key    string
		row    int
		isLeft bool
	}
	var entries []entry
	add := func(t *table.Table, col int, isLeft bool) {
		for i := 0; i < t.Len(); i++ {
			v := t.Row(i)[col]
			if v.IsNull() {
				continue
			}
			k := v.Str()
			if b.Key != nil {
				k = b.Key(k)
			}
			if k == "" {
				continue
			}
			entries = append(entries, entry{key: k, row: i, isLeft: isLeft})
		}
	}
	add(left, lj, true)
	add(right, rj, false)
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].key != entries[j].key {
			return entries[i].key < entries[j].key
		}
		// Left records before right ones, then by row, for determinism.
		if entries[i].isLeft != entries[j].isLeft {
			return entries[i].isLeft
		}
		return entries[i].row < entries[j].row
	})

	out := NewCandidateSet(left, right)
	for i := range entries {
		if err := strideErr(ctx, i); err != nil {
			return nil, err
		}
		hi := i + window
		if hi > len(entries) {
			hi = len(entries)
		}
		for j := i + 1; j < hi; j++ {
			a, c := entries[i], entries[j]
			switch {
			case a.isLeft && !c.isLeft:
				out.Add(Pair{A: a.row, B: c.row})
			case !a.isLeft && c.isLeft:
				out.Add(Pair{A: c.row, B: a.row})
			}
		}
	}
	return out, nil
}

// FilterCandidates applies a blocker-style predicate to an existing
// candidate set — PyMatcher's block_candset: sequential blocking where a
// cheap blocker's output is refined by a more expensive check without
// rescanning the Cartesian product. keep receives the two rows of each
// pair.
func FilterCandidates(cand *CandidateSet, label string, keep func(left, right table.Row) bool) (*CandidateSet, error) {
	if keep == nil {
		return nil, fmt.Errorf("block: filter %q needs a predicate", label)
	}
	out := cand.Filter(func(p Pair) bool {
		return keep(cand.Left.Row(p.A), cand.Right.Row(p.B))
	})
	return out, nil
}
