package block

import (
	"context"
	"fmt"
	"slices"

	"emgo/internal/fault"
	"emgo/internal/obs"
	"emgo/internal/simfunc"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// cancelStride is how many outer-loop rows a blocker processes between
// cancellation checks: frequent enough that a deadline aborts a join in
// well under a millisecond of extra work, rare enough that ctx.Err()'s
// lock never shows up in profiles.
const cancelStride = 64

// strideErr checks ctx once every cancelStride iterations.
func strideErr(ctx context.Context, i int) error {
	if i%cancelStride == 0 {
		return ctx.Err()
	}
	return nil
}

// AttrEquiv is the attribute-equivalence blocker: a pair survives only when
// the (non-null) blocking attributes of both records are exactly equal. A
// Transform, when set, is applied to the raw attribute text of each side
// before comparison — this is how the case study extracts the suffix of
// "UniqueAwardNumber" before the equality check (Section 7 step 1).
type AttrEquiv struct {
	LeftCol, RightCol string
	// LeftTransform/RightTransform map the attribute text to the blocking
	// key; a nil transform is the identity. Returning "" drops the record
	// from the index (treated as null).
	LeftTransform  func(string) string
	RightTransform func(string) string
}

// Name implements Blocker.
func (b AttrEquiv) Name() string {
	return fmt.Sprintf("attr_equiv(%s=%s)", b.LeftCol, b.RightCol)
}

// Block implements Blocker with a hash join on the blocking key.
func (b AttrEquiv) Block(left, right *table.Table) (*CandidateSet, error) {
	return b.BlockCtx(context.Background(), left, right)
}

// BlockCtx implements ContextBlocker.
func (b AttrEquiv) BlockCtx(ctx context.Context, left, right *table.Table) (*CandidateSet, error) {
	k, err := bindKeys(ctx, b, right)
	if err != nil {
		return nil, err
	}
	return k.BlockCtx(ctx, left, right)
}

// Overlap is the overlap blocker of Section 7 step 2: a pair survives when
// the blocking attributes share at least Threshold distinct tokens. When
// Normalize is true the attribute text is lowercased and special characters
// stripped first (the paper's pre-blocking normalization). The blocker
// probes an inverted index over the right table (see column.go), so runtime
// is proportional to the number of token collisions, not |left|×|right|.
type Overlap struct {
	LeftCol, RightCol string
	Tokenizer         tokenize.Tokenizer
	Threshold         int
	Normalize         bool
}

// Name implements Blocker.
func (b Overlap) Name() string {
	return fmt.Sprintf("overlap(%s~%s,K=%d)", b.LeftCol, b.RightCol, b.Threshold)
}

// Block implements Blocker.
func (b Overlap) Block(left, right *table.Table) (*CandidateSet, error) {
	return b.BlockCtx(context.Background(), left, right)
}

// BlockCtx implements ContextBlocker.
func (b Overlap) BlockCtx(ctx context.Context, left, right *table.Table) (*CandidateSet, error) {
	return blockUnbound(ctx, b, left, right)
}

func (b Overlap) join() (tokenJoin, error) {
	if b.Tokenizer == nil {
		return tokenJoin{}, fmt.Errorf("block: overlap blocker needs a tokenizer")
	}
	if b.Threshold < 1 {
		return tokenJoin{}, fmt.Errorf("block: overlap threshold must be >= 1, got %d", b.Threshold)
	}
	k := b.Threshold
	return newTokenJoin(b.LeftCol, b.RightCol, b.Tokenizer, b.Normalize,
		func(inter, _, _ int) bool { return inter >= k }), nil
}

// OverlapCoefficient is the overlap-coefficient blocker of Section 7 step
// 3: a pair survives when |A∩B| / min(|A|,|B|) >= Threshold over the
// distinct tokens of the blocking attributes. It handles short strings
// that the raw overlap blocker's absolute threshold cannot.
type OverlapCoefficient struct {
	LeftCol, RightCol string
	Tokenizer         tokenize.Tokenizer
	Threshold         float64
	Normalize         bool
}

// Name implements Blocker.
func (b OverlapCoefficient) Name() string {
	return fmt.Sprintf("overlap_coeff(%s~%s,t=%.2f)", b.LeftCol, b.RightCol, b.Threshold)
}

// Block implements Blocker.
func (b OverlapCoefficient) Block(left, right *table.Table) (*CandidateSet, error) {
	return b.BlockCtx(context.Background(), left, right)
}

// BlockCtx implements ContextBlocker.
func (b OverlapCoefficient) BlockCtx(ctx context.Context, left, right *table.Table) (*CandidateSet, error) {
	return blockUnbound(ctx, b, left, right)
}

func (b OverlapCoefficient) join() (tokenJoin, error) {
	if b.Tokenizer == nil {
		return tokenJoin{}, fmt.Errorf("block: overlap-coefficient blocker needs a tokenizer")
	}
	if b.Threshold <= 0 || b.Threshold > 1 {
		return tokenJoin{}, fmt.Errorf("block: overlap-coefficient threshold must be in (0,1], got %v", b.Threshold)
	}
	t := b.Threshold
	return newTokenJoin(b.LeftCol, b.RightCol, b.Tokenizer, b.Normalize,
		func(inter, la, lb int) bool { return simfunc.OverlapCoefficientSizes(inter, la, lb) >= t }), nil
}

// Func is a black-box blocker evaluating a predicate over the full
// Cartesian product. It is the escape hatch PyMatcher's scripting
// environment provides; only suitable for small inputs.
type Func struct {
	Label string
	Keep  func(left, right table.Row) bool
}

// Name implements Blocker.
func (b Func) Name() string {
	if b.Label != "" {
		return "func(" + b.Label + ")"
	}
	return "func"
}

// Block implements Blocker.
func (b Func) Block(left, right *table.Table) (*CandidateSet, error) {
	if b.Keep == nil {
		return nil, fmt.Errorf("block: func blocker needs a predicate")
	}
	out := NewCandidateSet(left, right)
	for i := 0; i < left.Len(); i++ {
		for j := 0; j < right.Len(); j++ {
			if b.Keep(left.Row(i), right.Row(j)) {
				out.Add(Pair{A: i, B: j})
			}
		}
	}
	return out, nil
}

// UnionBlock runs each blocker and unions the results — the Section 7 step
// 4 consolidation of C1 ∪ C2 ∪ C3.
func UnionBlock(left, right *table.Table, blockers ...Blocker) (*CandidateSet, error) {
	return UnionBlockCtx(context.Background(), left, right, blockers...)
}

// UnionBlockCtx is UnionBlock under the hardened runtime: each blocker
// run honours ctx (cancellation aborts mid-join for the blockers in this
// package), and each run passes through the "block.join" fault-injection
// site so tests can drive blocking failures deterministically. Blockers
// nobody bound are bound to right for the call (Bind), so those over one
// column share one build.
func UnionBlockCtx(ctx context.Context, left, right *table.Table, blockers ...Blocker) (*CandidateSet, error) {
	blockers, err := Bind(ctx, right, blockers...)
	if err != nil {
		return nil, err
	}
	out := NewCandidateSet(left, right)
	pairsBlocked := obs.C("block.pairs_blocked")
	// ready[k] is blockers[k]'s candidate set when the pass of an earlier
	// blocker over the same column has already produced it.
	ready := make([]*CandidateSet, len(blockers))
	// earlier holds a cursor on each earlier blocker's set; up to four
	// stay on the stack, so a request's union allocates none.
	var onStack [4]cursor
	earlier := onStack[:0]
	for k, b := range blockers {
		jctx, sp := obs.StartSpan(ctx, "block.join")
		sp.Annotate("blocker", b.Name())
		err := fault.Inject("block.join")
		if err == nil && ready[k] == nil {
			err = blockSharing(jctx, left, right, blockers, k, ready)
		}
		if err != nil {
			sp.SetOutcome(obs.OutcomeAborted)
			sp.End()
			return nil, fmt.Errorf("block: %s: %w", b.Name(), err)
		}
		c := ready[k]
		sp.SetItems(c.Len())
		sp.SetOutcome(obs.OutcomeOK)
		sp.End()
		pairsBlocked.Add(int64(c.Len()))
		// Grow the union in place, in Union's order (earlier pairs, then
		// c's new ones), making room for all of c at once. A pair of c is
		// new when no earlier blocker's set holds it, and the union is
		// never asked. The key and token blockers' sets are ascending,
		// and so is c: each earlier set is asked through a cursor that
		// walks it in step with c.
		if err := out.sameTables(c); err != nil {
			return nil, err
		}
		out.pairs = slices.Grow(out.pairs, len(c.pairs))
		earlier = earlier[:0]
		for _, e := range ready[:k] {
			earlier = append(earlier, cursor{set: e})
		}
	pairs:
		for _, p := range c.pairs {
			for i := range earlier {
				if earlier[i].contains(p) {
					continue pairs
				}
			}
			out.push(p)
		}
	}
	return out, nil
}
