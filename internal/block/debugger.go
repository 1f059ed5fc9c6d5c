package block

import (
	"context"
	"fmt"
	"sort"

	"emgo/internal/simfunc"
	"emgo/internal/tokenize"
)

// DebugPair is one pair the blocking debugger flags as a potential match
// that blocking discarded.
type DebugPair struct {
	Pair  Pair
	Score float64
}

// Debugger is a MatchCatcher-style blocking debugger (Section 7 step 5,
// [Li et al., EDBT 2018]): it ranks the record pairs that are in the
// Cartesian product but NOT in the candidate set by a similarity score and
// returns the top K, so a user can eyeball whether blocking killed off true
// matches. Similarity is the maximum Jaccard (word tokens, normalized) over
// the configured column pairs — using the max lets a pair surface when any
// one attribute is suspiciously similar.
type Debugger struct {
	// Cols maps a left column to the right column it is compared with.
	Cols map[string]string
	// K is how many top pairs to return (default 100, the number the case
	// study manually examined).
	K int
}

// Run returns the top-K likely matches outside cand, most similar first
// (ties by left then right row).
//
// The search goes through the blockers' token probe: a pair with zero
// shared tokens on every compared column has score 0 and cannot enter the
// top-K, so each left row is counted against a token column per compared
// column and only the rows it reaches are scored — from the counts, with
// no second tokenisation.
func (d Debugger) Run(cand *CandidateSet) ([]DebugPair, error) {
	if len(d.Cols) == 0 {
		return nil, fmt.Errorf("block: debugger needs at least one column pair")
	}
	k := d.K
	if k <= 0 {
		k = 100
	}
	left, right := cand.Left, cand.Right

	// Deterministic column order.
	names := make([]string, 0, len(d.Cols))
	for l := range d.Cols {
		names = append(names, l)
	}
	sort.Strings(names)
	form := Form{Tok: tokenize.Word{}, Fold: FoldNormalize}
	type compared struct {
		lj  int
		col *tokenColumn
		s   *scratch
	}
	cols := make([]compared, len(names))
	for n, l := range names {
		lj, err := left.Col(l)
		if err != nil {
			return nil, err
		}
		col, err := buildTokenColumn(context.Background(), right, d.Cols[l], form)
		if err != nil {
			return nil, err
		}
		cols[n] = compared{lj: lj, col: col, s: col.getScratch()}
	}

	// top holds the best pairs seen: at most 2k, cut back to the best k
	// whenever it fills, after which floor is the k-th best and anything
	// ranked behind it is dropped unexamined. Until then floor is the
	// zero pair, which every scored pair (score > 0) outranks.
	top := make([]DebugPair, 0, 2*k)
	var floor DebugPair
	cut := func() {
		sort.Slice(top, func(i, j int) bool { return rankedBefore(top[i], top[j]) })
		if len(top) >= k {
			top = top[:k]
			floor = top[k-1]
		}
	}
	for i := 0; i < left.Len(); i++ {
		row := left.Row(i)
		for n := range cols {
			c := &cols[n]
			c.s.keys, _ = c.col.AppendKeys(c.s.keys[:0], row[c.lj], false)
			c.col.probe(c.s.keys, c.s)
		}
		for n := range cols {
		reached:
			for _, r := range cols[n].s.touched {
				for _, earlier := range cols[:n] {
					if earlier.s.counts[r] > 0 {
						continue reached // scored under that column
					}
				}
				p := DebugPair{Pair: Pair{A: i, B: int(r)}}
				for _, c := range cols[n:] {
					if inter := int(c.s.counts[r]); inter > 0 {
						p.Score = max(p.Score, simfunc.JaccardSizes(inter, len(c.s.keys), int(c.col.lens[r])))
					}
				}
				if !rankedBefore(p, floor) || cand.Contains(p.Pair) {
					continue
				}
				if top = append(top, p); len(top) == 2*k {
					cut()
				}
			}
		}
		for n := range cols {
			cols[n].s.reset()
		}
	}
	cut()
	return top, nil
}

// rankedBefore is the debugger's order: score descending, then (A, B).
func rankedBefore(p, q DebugPair) bool {
	if p.Score != q.Score {
		return p.Score > q.Score
	}
	if p.Pair.A != q.Pair.A {
		return p.Pair.A < q.Pair.A
	}
	return p.Pair.B < q.Pair.B
}
