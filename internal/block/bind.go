package block

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// Bind returns the blockers bound to right: what each prepares from the
// right table — a token column, a key index — is built here, once, and a
// later Block over right only probes it. Blockers over the same column
// and token form share one column. A server binds its reference table at
// start-up; a blocker that was never bound binds itself for the length of
// each Block call, through the same code.
//
// The binding follows the table, not the call: run against a right table
// that has grown since, or against another table, a bound blocker prepares
// that one first (and keeps it instead). Blockers with nothing to prepare
// are returned as they are. The first blocker that cannot be bound — its
// configuration is invalid, right lacks its column, ctx ended — fails Bind
// with the error its every Block would have returned.
func Bind(ctx context.Context, right *table.Table, blockers ...Blocker) ([]Blocker, error) {
	out := Bound(blockers...)
	for _, b := range out {
		var err error
		switch b := b.(type) {
		case *boundTokens:
			_, err = b.col.Get(ctx, right, b.buildColumn)
		case *boundKeys:
			_, err = b.idx.Get(ctx, right, b.buildIndex)
		case tokenBlocker: // left unbound by Bound: its configuration is invalid
			_, err = b.join()
		}
		if err != nil {
			return nil, fmt.Errorf("block: %s: %w", b.Name(), err)
		}
	}
	return out, nil
}

// Bound is Bind without the build: the blockers in bound form, each
// preparing its right side the first time it is run against a table — and
// keeping it, so whoever holds the returned blockers pays for a table
// once. Blockers already bound are returned as they are.
func Bound(blockers ...Blocker) []Blocker {
	out := make([]Blocker, len(blockers))
	for k, b := range blockers {
		out[k] = b
		switch b := b.(type) {
		case AttrEquiv:
			out[k] = newBoundKeys(b)
		case tokenBlocker:
			if j, err := b.join(); err == nil {
				out[k] = newBoundTokens(b, j, out[:k])
			}
		}
	}
	return out
}

// tokenBlocker is a blocker that is a tokenJoin once its configuration
// has been checked.
type tokenBlocker interface {
	Blocker
	join() (tokenJoin, error)
}

// tokenJoin is what Overlap, OverlapCoefficient and JaccardJoin are made
// of: a token column over the right table and a predicate on the three
// counts every set similarity is a function of — |A∩B|, |A| and |B| over
// the two cells' distinct tokens. keep is monotone in |A∩B| (more shared
// tokens never drop a pair), which is what lets a join ask it once per
// pair of sizes instead of once per pair (see admission).
type tokenJoin struct {
	leftCol, rightCol string
	form              Form
	keep              func(inter, la, lb int) bool
}

// newTokenJoin is a token blocker's join: its columns, its tokenizer —
// under the Section 7 normalization when it asks for it — and its
// predicate.
func newTokenJoin(leftCol, rightCol string, tok tokenize.Tokenizer, normalize bool, keep func(inter, la, lb int) bool) tokenJoin {
	j := tokenJoin{leftCol: leftCol, rightCol: rightCol, form: Form{Tok: tok}, keep: keep}
	if normalize {
		j.form.Fold = FoldNormalize
	}
	return j
}

// boundTokens is a token blocker in bound form.
type boundTokens struct {
	Blocker // the blocker this binds, for its name
	join    tokenJoin
	col     *Prepared[tokenColumn]
}

// newBoundTokens binds b, sharing the column of a blocker among others
// that is over the same right column in the same form.
func newBoundTokens(b Blocker, j tokenJoin, others []Blocker) *boundTokens {
	for _, o := range others {
		if o, ok := o.(*boundTokens); ok && o.join.rightCol == j.rightCol && o.join.form.Same(j.form) {
			return &boundTokens{Blocker: b, join: j, col: o.col}
		}
	}
	return &boundTokens{Blocker: b, join: j, col: &Prepared[tokenColumn]{}}
}

func (b *boundTokens) buildColumn(ctx context.Context, right *table.Table) (*tokenColumn, error) {
	return buildTokenColumn(ctx, right, b.join.rightCol, b.join.form)
}

// blockUnbound runs a token blocker nobody bound: bind, then probe.
func blockUnbound(ctx context.Context, b tokenBlocker, left, right *table.Table) (*CandidateSet, error) {
	j, err := b.join()
	if err != nil {
		return nil, err
	}
	return newBoundTokens(b, j, nil).BlockCtx(ctx, left, right)
}

// Block implements Blocker.
func (b *boundTokens) Block(left, right *table.Table) (*CandidateSet, error) {
	return b.BlockCtx(context.Background(), left, right)
}

// BlockCtx implements ContextBlocker.
func (b *boundTokens) BlockCtx(ctx context.Context, left, right *table.Table) (*CandidateSet, error) {
	sets, err := joinTokens(ctx, left, right, []*boundTokens{b})
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// blockSharing runs blockers[k] into ready[k] and, when it is a token
// blocker, fills in from the same pass the sets of the later blockers over
// the same column and left column.
func blockSharing(ctx context.Context, left, right *table.Table, blockers []Blocker, k int, ready []*CandidateSet) error {
	lead, ok := blockers[k].(*boundTokens)
	if !ok {
		c, err := BlockWithContext(ctx, blockers[k], left, right)
		ready[k] = c
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	group, at := []*boundTokens{lead}, []int{k}
	for i := k + 1; i < len(blockers); i++ {
		if o, ok := blockers[i].(*boundTokens); ok && o.col == lead.col && o.join.leftCol == lead.join.leftCol {
			group, at = append(group, o), append(at, i)
		}
	}
	sets, err := joinTokens(ctx, left, right, group)
	if err != nil {
		return err
	}
	for n, i := range at {
		ready[i] = sets[n]
	}
	return nil
}

// joinTokens runs token blockers that share a column and a left column —
// group[0]'s — and returns their candidate sets. Each left row is
// tokenised and counted against the column once; every blocker then
// judges the rows reached from the same counts, by admission: a reached
// row is one compare against the least count any blocker admits, and a
// compare per blocker only if it passes. A blocker's pairs come out as it
// would emit them alone: left rows ascending, and per left row the right
// rows ascending — candidate-set insertion order feeds sampling, and
// through it every downstream artifact.
func joinTokens(ctx context.Context, left, right *table.Table, group []*boundTokens) ([]*CandidateSet, error) {
	lead := group[0]
	lj, err := left.Col(lead.join.leftCol)
	if err != nil {
		return nil, err
	}
	col, err := lead.col.Get(ctx, right, lead.buildColumn)
	if err != nil {
		return nil, err
	}
	sets := make([]*CandidateSet, len(group))
	for k := range sets {
		sets[k] = NewCandidateSet(left, right)
	}
	adm := admissions{group: group, width: col.maxLen + 1}
	s := col.getScratch()
	defer col.putScratch(s)
	for i := 0; i < left.Len(); i++ {
		if err := strideErr(ctx, i); err != nil {
			return nil, err
		}
		s.keys, _ = col.AppendKeys(s.keys[:0], left.Row(i)[lj], false)
		col.probe(s.keys, s)
		if len(s.touched) == 0 {
			continue
		}
		need := adm.rows(len(s.keys))
		// Keep the reached rows some blocker admits, clearing the rest's
		// counts as they go, and walk the kept ones ascending.
		least, kept := need[:adm.width], s.touched[:0]
		for _, r := range s.touched {
			if s.counts[r] >= least[col.lens[r]] {
				kept = append(kept, r)
			} else {
				s.counts[r] = 0
			}
		}
		s.touched = kept
		slices.Sort(kept)
		for _, r := range kept {
			inter, lb := s.counts[r], int(col.lens[r])
			for k, set := range sets {
				if inter >= need[(k+1)*adm.width+lb] {
					set.Add(Pair{A: i, B: int(r)})
				}
			}
		}
		s.reset()
	}
	return sets, nil
}

// admissions is a group's least admitting counts, per left cell size met:
// rows(la) is, over right sizes lb = 0…width−1, the least count any of the
// group admits, then each blocker's in group order.
type admissions struct {
	group []*boundTokens
	width int
	byLa  [][]int32
}

func (a *admissions) rows(la int) []int32 {
	if la >= len(a.byLa) {
		a.byLa = append(a.byLa, make([][]int32, la+1-len(a.byLa))...)
	}
	if a.byLa[la] == nil {
		need := make([]int32, a.width, (1+len(a.group))*a.width)
		for k, b := range a.group {
			need = admission(b.join.keep, la, a.width, need)
			for lb, mine := range need[len(need)-a.width:] {
				if k == 0 || mine < need[lb] {
					need[lb] = mine
				}
			}
		}
		a.byLa[la] = need
	}
	return a.byLa[la]
}

// admission appends to need, for a left cell of la tokens and each right
// size lb in 0…width−1, the least count keep admits: the least c in
// 0…min(la, lb) with keep(c, la, lb), or min(la, lb)+1 if there is none.
// Since keep is monotone in the count, inter ≥ need[lb] is exactly
// keep(inter, la, lb) — the predicate's own comparison, never a closed
// form such as ceil(t·m), which rounds 100 × 0.07 up to 8.
func admission(keep func(inter, la, lb int) bool, la, width int, need []int32) []int32 {
	for lb := 0; lb < width; lb++ {
		m := min(la, lb)
		need = append(need, int32(sort.Search(m+1, func(c int) bool { return keep(c, la, lb) })))
	}
	return need
}

// KeyIndex is a keyed-equality join's prepared right side: the right rows
// under each non-empty key text, ascending — AttrEquiv's index, and a
// sure rule's (the paper's C1 is the M1 rule run as a blocker).
type KeyIndex map[string][]int

// BuildKeyIndex indexes column rj of right under transform.
func BuildKeyIndex(ctx context.Context, right *table.Table, rj int, transform func(string) string) (KeyIndex, error) {
	idx := make(KeyIndex)
	for i := 0; i < right.Len(); i++ {
		if err := strideErr(ctx, i); err != nil {
			return nil, err
		}
		if k := KeyText(right.Row(i)[rj], transform); k != "" {
			idx[k] = append(idx[k], i)
		}
	}
	return idx, nil
}

// KeyText is a cell's key under transform; "" — no key, the record joins
// nothing — for a null cell or one the transform drops.
func KeyText(v table.Value, transform func(string) string) string {
	if v.IsNull() {
		return ""
	}
	s := v.Str()
	if transform != nil {
		s = transform(s)
	}
	return s
}

// boundKeys is AttrEquiv in bound form.
type boundKeys struct {
	AttrEquiv
	idx *Prepared[KeyIndex]
}

func newBoundKeys(b AttrEquiv) *boundKeys {
	return &boundKeys{AttrEquiv: b, idx: &Prepared[KeyIndex]{}}
}

func (b *boundKeys) buildIndex(ctx context.Context, right *table.Table) (*KeyIndex, error) {
	rj, err := right.Col(b.RightCol)
	if err != nil {
		return nil, err
	}
	idx, err := BuildKeyIndex(ctx, right, rj, b.RightTransform)
	return &idx, err
}

// Block implements Blocker.
func (b *boundKeys) Block(left, right *table.Table) (*CandidateSet, error) {
	return b.BlockCtx(context.Background(), left, right)
}

// BlockCtx implements ContextBlocker.
func (b *boundKeys) BlockCtx(ctx context.Context, left, right *table.Table) (*CandidateSet, error) {
	lj, err := left.Col(b.LeftCol)
	if err != nil {
		return nil, err
	}
	idx, err := b.idx.Get(ctx, right, b.buildIndex)
	if err != nil {
		return nil, err
	}
	out := NewCandidateSet(left, right)
	for i := 0; i < left.Len(); i++ {
		if err := strideErr(ctx, i); err != nil {
			return nil, err
		}
		for _, ri := range (*idx)[KeyText(left.Row(i)[lj], b.LeftTransform)] {
			out.Add(Pair{A: i, B: ri})
		}
	}
	return out, nil
}
