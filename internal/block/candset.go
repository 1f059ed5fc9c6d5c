// Package block implements blocking for entity matching: the attribute
// equivalence, overlap, and overlap-coefficient blockers used in Section 7
// of the case study, candidate-set algebra (union, minus, intersection),
// and a MatchCatcher-style blocking debugger that surfaces likely matches
// the blocking pipeline may have killed off.
package block

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"emgo/internal/table"
)

// Pair identifies a candidate record pair by row index into the left and
// right tables.
type Pair struct {
	A int // row index in the left table
	B int // row index in the right table
}

// comparePairs is the (A, B) order blockers emit pairs in.
func comparePairs(p, q Pair) int {
	if c := cmp.Compare(p.A, q.A); c != 0 {
		return c
	}
	return cmp.Compare(p.B, q.B)
}

// CandidateSet is a deduplicated set of record pairs over a fixed pair of
// tables, in insertion order. The zero value is not usable; create with
// NewCandidateSet.
//
// Blockers emit pairs ascending, so a set is its pair slice: while pairs
// arrive ascending, adding one is a compare with the last and membership
// is a binary search — or, asked a run of pairs in order, as the set
// algebra asks, a step of a cursor. Once a pair arrives out of order the
// set is unordered, and the first membership question about it builds an
// index; Add keeps it current from then on. Reads — Contains included —
// may run concurrently.
type CandidateSet struct {
	Left      *table.Table
	Right     *table.Table
	pairs     []Pair
	unordered bool // some pair is not after the one before it

	indexOnce sync.Once
	index     map[Pair]struct{} // every pair, once an unordered set is asked about
}

// NewCandidateSet returns an empty candidate set over left and right.
func NewCandidateSet(left, right *table.Table) *CandidateSet {
	return &CandidateSet{Left: left, Right: right}
}

// Add inserts a pair; duplicates are ignored. It reports whether the pair
// was new.
func (c *CandidateSet) Add(p Pair) bool {
	if n := len(c.pairs); !c.unordered && (n == 0 || comparePairs(c.pairs[n-1], p) < 0) {
		c.pairs = append(c.pairs, p)
		return true
	}
	if c.Contains(p) {
		return false
	}
	c.push(p)
	return true
}

// push appends p, which the caller knows is not in c.
func (c *CandidateSet) push(p Pair) {
	if n := len(c.pairs); n > 0 && comparePairs(c.pairs[n-1], p) > 0 {
		c.unordered = true
	}
	c.pairs = append(c.pairs, p)
	if c.index != nil {
		c.index[p] = struct{}{}
	}
}

// Contains reports whether the pair is present.
func (c *CandidateSet) Contains(p Pair) bool {
	if !c.unordered {
		_, ok := slices.BinarySearchFunc(c.pairs, p, comparePairs)
		return ok
	}
	c.indexOnce.Do(func() {
		index := make(map[Pair]struct{}, len(c.pairs))
		for _, q := range c.pairs {
			index[q] = struct{}{}
		}
		c.index = index
	})
	_, ok := c.index[p]
	return ok
}

// cursor asks one set about a run of pairs, most of them ascending — a
// blocker's set in order, or a union of such runs. On an ascending set it
// keeps where the last pair asked about would go and gallops forward from
// there, so a walk in step with the set costs a compare or two a pair;
// a pair before the last one asked is a binary search below it. An
// unordered set is asked through its index. A cursor is a value: one
// walk's, on its caller's stack.
type cursor struct {
	set *CandidateSet
	at  int // every pair before at is before the last pair asked about
}

// contains reports whether p is in the cursor's set.
func (cur *cursor) contains(p Pair) bool {
	c := cur.set
	if c.unordered {
		return c.Contains(p)
	}
	lo, hi := cur.at, len(c.pairs)
	if lo > 0 && comparePairs(c.pairs[lo-1], p) >= 0 {
		lo, hi = 0, lo // p steps back
	} else {
		// Widen a window from lo by doubling steps until its last pair is
		// not before p; everything it passes over is.
		for step := 1; lo+step <= hi; step *= 2 {
			if comparePairs(c.pairs[lo+step-1], p) >= 0 {
				hi = lo + step
				break
			}
			lo += step
		}
	}
	i, ok := slices.BinarySearchFunc(c.pairs[lo:hi], p, comparePairs)
	cur.at = lo + i
	return ok
}

// Len returns the number of pairs.
func (c *CandidateSet) Len() int { return len(c.pairs) }

// Pairs returns the pairs in insertion order. Callers must not mutate the
// returned slice.
func (c *CandidateSet) Pairs() []Pair { return c.pairs }

// Pair returns the i-th pair.
func (c *CandidateSet) Pair(i int) Pair { return c.pairs[i] }

// sameTables guards the set algebra: operands must be over the same
// two tables for row indices to be comparable.
func (c *CandidateSet) sameTables(o *CandidateSet) error {
	if c.Left != o.Left || c.Right != o.Right {
		return fmt.Errorf("block: candidate sets are over different tables")
	}
	return nil
}

// Union returns a new set with all pairs of c and o: c's, then o's that c
// lacks.
func (c *CandidateSet) Union(o *CandidateSet) (*CandidateSet, error) {
	if err := c.sameTables(o); err != nil {
		return nil, err
	}
	out := NewCandidateSet(c.Left, c.Right)
	out.pairs = append(make([]Pair, 0, len(c.pairs)+len(o.pairs)), c.pairs...)
	out.unordered = c.unordered
	in := cursor{set: c}
	for _, p := range o.pairs {
		if !in.contains(p) {
			out.push(p)
		}
	}
	return out, nil
}

// Minus returns a new set with the pairs of c not in o.
func (c *CandidateSet) Minus(o *CandidateSet) (*CandidateSet, error) {
	if err := c.sameTables(o); err != nil {
		return nil, err
	}
	in := cursor{set: o}
	return c.Filter(func(p Pair) bool { return !in.contains(p) }), nil
}

// Intersect returns a new set with the pairs present in both c and o.
func (c *CandidateSet) Intersect(o *CandidateSet) (*CandidateSet, error) {
	if err := c.sameTables(o); err != nil {
		return nil, err
	}
	in := cursor{set: o}
	return c.Filter(in.contains), nil
}

// Sample returns n pairs drawn uniformly without replacement.
func (c *CandidateSet) Sample(n int, rng *rand.Rand) ([]Pair, error) {
	if n < 0 || n > len(c.pairs) {
		return nil, fmt.Errorf("block: sample %d of %d pairs", n, len(c.pairs))
	}
	perm := rng.Perm(len(c.pairs))
	out := make([]Pair, n)
	for i := 0; i < n; i++ {
		out[i] = c.pairs[perm[i]]
	}
	return out, nil
}

// Filter returns a new set with the pairs for which keep returns true.
// They are distinct already, so none is checked against the rest. The
// first kept pair makes room for every pair of c, so the new set never
// grows, and a set that keeps none allocates nothing.
func (c *CandidateSet) Filter(keep func(Pair) bool) *CandidateSet {
	out := NewCandidateSet(c.Left, c.Right)
	for _, p := range c.pairs {
		if keep(p) {
			if out.pairs == nil {
				out.pairs = make([]Pair, 0, len(c.pairs))
			}
			out.push(p)
		}
	}
	return out
}

// PerLeftCounts returns, for every left-table row, how many candidate
// pairs reference it — the per-input-row candidate-set size that quality
// monitoring profiles (a row with zero candidates was not covered by
// blocking).
func (c *CandidateSet) PerLeftCounts() []int {
	out := make([]int, c.Left.Len())
	for _, p := range c.pairs {
		out[p.A]++
	}
	return out
}

// Sorted returns the pairs ordered by (A, B); used for deterministic
// output in reports.
func (c *CandidateSet) Sorted() []Pair {
	return c.AppendSorted(make([]Pair, 0, len(c.pairs)))
}

// AppendSorted appends the pairs to dst ordered by (A, B) and returns the
// extended slice: Sorted into memory the caller keeps.
func (c *CandidateSet) AppendSorted(dst []Pair) []Pair {
	n := len(dst)
	dst = append(dst, c.pairs...)
	if c.unordered {
		slices.SortFunc(dst[n:], comparePairs)
	}
	return dst
}

// Blocker produces a candidate set from two tables.
type Blocker interface {
	// Block computes the candidate pairs of left × right that survive
	// the blocker. It returns ctx.Err() promptly (without finishing the
	// join) once ctx is done.
	Block(ctx context.Context, left, right *table.Table) (*CandidateSet, error)
	// Name identifies the blocker on its block.join span (attrs.blocker).
	Name() string
}
