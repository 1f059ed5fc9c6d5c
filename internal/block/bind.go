package block

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"emgo/internal/parallel"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// Bind returns the blockers bound to right: what each prepares from the
// right table — a token column, a key index — is built here, once, into
// the blockers returned, and a Block over right only probes it. Blockers
// over the same column and token form share one column. A bound blocker
// answers about right only: asked about any other table, it returns an
// error naming both. The blockers passed in are left as they are, and
// those with nothing to prepare or already bound come back as they went
// in. The first blocker that cannot be bound — its configuration is
// invalid, right lacks its column, ctx ended — fails Bind with the error
// its Block would have returned.
//
// A server binds its reference table at start-up (Workflow.Deploy); a
// union of blockers nobody bound binds them for the length of the call,
// through the same code.
func Bind(ctx context.Context, right *table.Table, blockers ...Blocker) ([]Blocker, error) {
	out := make([]Blocker, len(blockers))
	for k, b := range blockers {
		var err error
		switch b := b.(type) {
		case AttrEquiv:
			out[k], err = bindKeys(ctx, b, right)
		case tokenBlocker:
			out[k], err = bindTokens(ctx, b, right, out[:k])
		default:
			out[k] = b
		}
		if err != nil {
			return nil, fmt.Errorf("block: %s: %w", b.Name(), err)
		}
	}
	return out, nil
}

// Columns returns the token columns of the bound blockers among blockers,
// each once: what a feature set bound to the same table reuses
// (feature.Set.Bind) rather than tokenise the table again.
func Columns(blockers []Blocker) []*Column {
	var out []*Column
	for _, b := range blockers {
		if b, ok := b.(*boundTokens); ok && !slices.Contains(out, b.col.Column) {
			out = append(out, b.col.Column)
		}
	}
	return out
}

// CheckBound returns nil when right is the table a part was bound to,
// and otherwise the error naming both.
func CheckBound(bound, right *table.Table) error {
	if right == bound {
		return nil
	}
	return fmt.Errorf("bound to table %q (%d rows), asked about table %q (%d rows)",
		bound.Name(), bound.Len(), right.Name(), right.Len())
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

// boundTokens is a token blocker bound to a right table: the column of
// it under the blocker's form, built once and then only read.
type boundTokens struct {
	Blocker // the blocker this binds, for its name
	join    tokenJoin
	right   *table.Table
	col     *tokenColumn
}

// bindTokens binds b to right, sharing the column of a blocker among
// others bound to right over the same column in the same form.
func bindTokens(ctx context.Context, b tokenBlocker, right *table.Table, others []Blocker) (*boundTokens, error) {
	j, err := b.join()
	if err != nil {
		return nil, err
	}
	for _, o := range others {
		if o, ok := o.(*boundTokens); ok && o.right == right && o.join.rightCol == j.rightCol && o.join.form.Same(j.form) {
			return &boundTokens{Blocker: b, join: j, right: right, col: o.col}, nil
		}
	}
	col, err := buildTokenColumn(ctx, right, j.rightCol, j.form)
	if err != nil {
		return nil, err
	}
	return &boundTokens{Blocker: b, join: j, right: right, col: col}, nil
}

// blockUnbound runs a token blocker nobody bound: bind, then probe.
func blockUnbound(ctx context.Context, b tokenBlocker, left, right *table.Table) (*CandidateSet, error) {
	bt, err := bindTokens(ctx, b, right, nil)
	if err != nil {
		return nil, err
	}
	return bt.BlockCtx(ctx, left, right)
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
// group[0]'s — and returns their candidate sets, in two steps.
//
// Probe: each left row is tokenised and counted against the column once;
// every blocker then judges the rows reached from the same counts, by
// admission — a reached row is one compare against the least count any
// blocker admits, and a compare per blocker only if it passes. The rows
// that pass are kept, with their counts, and each blocker's admitted pairs
// are counted. The left table is probed in joinShards contiguous ranges of
// rows at once, each with its own scratch.
//
// Emit: each blocker's set is allocated once, at the size its count says,
// and filled range by range. A blocker's pairs come out as it would emit
// them alone: left rows ascending, and per left row the right rows
// ascending — candidate-set insertion order feeds sampling, and through it
// every downstream artifact.
func joinTokens(ctx context.Context, left, right *table.Table, group []*boundTokens) ([]*CandidateSet, error) {
	lead := group[0]
	lj, err := left.Col(lead.join.leftCol)
	if err != nil {
		return nil, err
	}
	if err := CheckBound(lead.right, right); err != nil {
		return nil, err
	}
	col, n := lead.col, left.Len()
	// One shard — a request, a batch — lives on the stack. Only the
	// sharded path, whose goroutines share them, allocates its shards.
	var one [1]joinShard
	shards, many := one[:], []joinShard(nil)
	if k := joinShards(n); k > 1 {
		many = make([]joinShard, k)
		shards = many
	}
	for k := range shards {
		s := col.getScratch()
		s.admitted = append(s.admitted[:0], make([]int, len(group))...)
		shards[k] = joinShard{
			lo: k * n / len(shards), hi: (k + 1) * n / len(shards), s: s,
			adm: admissions{group: group, width: col.maxLen + 1},
		}
	}
	defer func() {
		for _, sh := range shards {
			col.putScratch(sh.s)
		}
	}()
	if many == nil {
		err = shards[0].probe(ctx, col, left, lj)
	} else {
		err = parallel.ForWorkersCtx(ctx, len(many), len(many), func(k int) error {
			return many[k].probe(ctx, col, left, lj)
		})
		// A shard fails only when ctx ends: report that, as a serial
		// join would, not the shard it ended in.
		var ie *parallel.IndexError
		if errors.As(err, &ie) {
			err = ie.Err
		}
	}
	if err != nil {
		return nil, err
	}
	sets := make([]*CandidateSet, len(group))
	for k := range sets {
		total := 0
		for _, sh := range shards {
			total += sh.s.admitted[k]
		}
		sets[k] = NewCandidateSet(left, right)
		sets[k].pairs = make([]Pair, 0, total)
	}
	for _, sh := range shards {
		sh.emit(col, sets)
	}
	return sets, nil
}

// joinShards is how many ranges a token join probes n left rows in at
// once: one more for every 256 rows, up to one a core. Below 256 rows — a
// request, a batch — the join probes on the caller; past that each range
// is rows enough to pay for starting a goroutine.
func joinShards(n int) int { return min(runtime.GOMAXPROCS(0), 1+n/256) }

// joinShard is one range of a token join's left rows, the scratch that
// holds what probing it kept, and its admission cache.
type joinShard struct {
	lo, hi int
	s      *scratch
	adm    admissions
}

// probe counts each of the shard's left rows against col and keeps the
// right rows some blocker admits.
func (sh *joinShard) probe(ctx context.Context, col *tokenColumn, left *table.Table, lj int) error {
	s, adm := sh.s, &sh.adm
	for i := sh.lo; i < sh.hi; i++ {
		if err := strideErr(ctx, i-sh.lo); err != nil {
			return err
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
			s.hits = append(s.hits, hit{row: r, inter: inter})
			for k := range s.admitted {
				if inter >= need[(k+1)*adm.width+lb] {
					s.admitted[k]++
				}
			}
		}
		s.reset()
		s.lefts = append(s.lefts, leftHits{row: int32(i), size: int32(len(s.keys)), end: int32(len(s.hits))})
	}
	return nil
}

// emit appends to each blocker's set the pairs of the shard's hits it
// admits, left row by left row.
func (sh *joinShard) emit(col *tokenColumn, sets []*CandidateSet) {
	start := int32(0)
	for _, l := range sh.s.lefts {
		need := sh.adm.rows(int(l.size))
		for _, h := range sh.s.hits[start:l.end] {
			lb := int(col.lens[h.row])
			for k, set := range sets {
				if h.inter >= need[(k+1)*sh.adm.width+lb] {
					set.pairs = append(set.pairs, Pair{A: int(l.row), B: int(h.row)})
				}
			}
		}
		start = l.end
	}
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

// boundKeys is AttrEquiv bound to a right table: the index of it, built
// once and then only read.
type boundKeys struct {
	AttrEquiv
	right *table.Table
	idx   KeyIndex
}

func bindKeys(ctx context.Context, b AttrEquiv, right *table.Table) (*boundKeys, error) {
	rj, err := right.Col(b.RightCol)
	if err != nil {
		return nil, err
	}
	idx, err := BuildKeyIndex(ctx, right, rj, b.RightTransform)
	if err != nil {
		return nil, err
	}
	return &boundKeys{AttrEquiv: b, right: right, idx: idx}, nil
}

// Block implements Blocker.
func (b *boundKeys) Block(left, right *table.Table) (*CandidateSet, error) {
	return b.BlockCtx(context.Background(), left, right)
}

// BlockCtx implements ContextBlocker.
func (b *boundKeys) BlockCtx(ctx context.Context, left, right *table.Table) (*CandidateSet, error) {
	if err := CheckBound(b.right, right); err != nil {
		return nil, err
	}
	lj, err := left.Col(b.LeftCol)
	if err != nil {
		return nil, err
	}
	out := NewCandidateSet(left, right)
	for i := 0; i < left.Len(); i++ {
		if err := strideErr(ctx, i); err != nil {
			return nil, err
		}
		for _, ri := range b.idx[KeyText(left.Row(i)[lj], b.LeftTransform)] {
			out.Add(Pair{A: i, B: ri})
		}
	}
	return out, nil
}
