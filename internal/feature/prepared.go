package feature

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"

	"emgo/internal/block"
	"emgo/internal/parallel"
	"emgo/internal/simfunc"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// A set similarity is a ratio of three counts over the distinct tokens of
// the two cells. Tokenising a cell and building its set costs far more
// than comparing two sets, and a row appears in many candidate pairs, so
// VectorizeCtx prepares each referenced cell once per call — its sorted
// distinct tokens under each form the feature set uses — and every pair
// is then one merge over two prepared cells: no map, no allocation.

// cellForm says how a cell's text becomes a token set: optional
// lowercasing (the Section 9 case-insensitive variants), then tok.
type cellForm struct {
	tok   tokenize.Tokenizer
	lower bool
}

// tokens returns the sorted distinct form tokens of s.
func (f cellForm) tokens(s string) []string {
	if f.lower {
		s = tokenize.Lower(s)
	}
	return tokenize.SortDistinct(f.tok.Tokens(s))
}

// cell is one prepared table cell.
type cell struct {
	toks []string
	null bool
}

func (f cellForm) prepare(v table.Value) cell {
	if v.IsNull() {
		return cell{null: true}
	}
	return cell{toks: f.tokens(v.Str())}
}

// setSim builds the registry entry of a set similarity. Its per-pair
// compute is the prepared computation on two freshly prepared cells, so
// Feature.Compute and VectorizeCtx share one definition.
func setSim(form cellForm, ratio func(inter, la, lb int) float64) similarity {
	return similarity{
		compute: func(a, b table.Value) float64 {
			ca, cb := form.prepare(a), form.prepare(b)
			if ca.null || cb.null {
				return math.NaN()
			}
			return ratio(simfunc.SortedIntersectionSize(ca.toks, cb.toks), len(ca.toks), len(cb.toks))
		},
		form:  form,
		ratio: ratio,
	}
}

// cellGroup is the set features of a feature set that share one prepared
// cell pair — same columns, same form — and therefore one intersection
// per candidate pair.
type cellGroup struct {
	lj, rj int
	form   cellForm
	// feats and ratios align: feature index in the set, and its ratio.
	feats  []int
	ratios []func(inter, la, lb int) float64
}

// plan is a feature set resolved against a table pair's schemas.
type plan struct {
	lj, rj []int // per feature: left and right column index
	groups []cellGroup
	direct []int // features computed by Feature.Compute
}

// planFor resolves the set's columns against left and right and splits its
// features into prepared groups and direct computations. A feature is
// prepared when its Func names a set similarity of the registry; custom
// closures (empty Func) and every other similarity stay direct.
func (s *Set) planFor(left, right *table.Table) (*plan, error) {
	pl := &plan{lj: make([]int, len(s.Features)), rj: make([]int, len(s.Features))}
	for k, f := range s.Features {
		lj, err := left.Col(f.LeftCol)
		if err != nil {
			return nil, err
		}
		rj, err := right.Col(f.RightCol)
		if err != nil {
			return nil, err
		}
		pl.lj[k], pl.rj[k] = lj, rj
		sim := computeRegistry[f.Func]
		if sim.ratio == nil {
			pl.direct = append(pl.direct, k)
			continue
		}
		g := 0
		for g < len(pl.groups) && (pl.groups[g].lj != lj || pl.groups[g].rj != rj || pl.groups[g].form != sim.form) {
			g++
		}
		if g == len(pl.groups) {
			pl.groups = append(pl.groups, cellGroup{lj: lj, rj: rj, form: sim.form})
		}
		pl.groups[g].feats = append(pl.groups[g].feats, k)
		pl.groups[g].ratios = append(pl.groups[g].ratios, sim.ratio)
	}
	return pl, nil
}

// fanOut is how many workers n light work items — a row to tokenise, a
// pair to compare: microseconds each — are worth. Starting and waking a
// goroutine costs about as much as several of them, so a one-record
// request's handful of candidates runs on the caller and only real
// batches fan out.
func fanOut(n int) int { return min(runtime.GOMAXPROCS(0), 1+n/32) }

// prepared holds the cells a pair list's vectors are computed from: the
// left cells of exactly the rows the pairs reference and, unless the set
// is bound to the right table (Bind), the right cells likewise. Those row
// slots are positions in the sorted distinct row lists, so nothing built
// per call is sized by a table — a one-record request against a large
// right table prepares only its own row.
type prepared struct {
	leftRows, rightRows []int
	// cells is group-major: group g's left cells, then its right cells.
	cells []cell
	// bound, when set, holds per group the right cells of every row
	// instead: rightRows and cells are empty, and left (group-major) has
	// the left cells in the bound columns' ids.
	bound []*boundCells
	left  []idCell
}

func (p *prepared) stride() int { return len(p.leftRows) + len(p.rightRows) }

// slots returns where pair q's rows sit in every group's cells: positions
// in the sorted row lists, or, for the right row of a bound set, the row
// itself.
func (p *prepared) slots(q block.Pair) (ls, rs int) {
	ls = sort.SearchInts(p.leftRows, q.A)
	if p.bound != nil {
		return ls, q.B
	}
	return ls, sort.SearchInts(p.rightRows, q.B)
}

// counts returns |A∩B|, |A| and |B| over group g's two cells at the given
// slots; ok is false when either cell is null.
func (p *prepared) counts(g, ls, rs int) (inter, la, lb int, ok bool) {
	if p.bound != nil {
		a, b := p.left[g*len(p.leftRows)+ls], p.bound[g].cells[rs]
		if a.null || b.null {
			return 0, 0, 0, false
		}
		return simfunc.SortedIntersectionSize(a.ids, b.ids), a.n, b.n, true
	}
	base := g * p.stride()
	a, b := p.cells[base+ls], p.cells[base+len(p.leftRows)+rs]
	if a.null || b.null {
		return 0, 0, 0, false
	}
	return simfunc.SortedIntersectionSize(a.toks, b.toks), len(a.toks), len(b.toks), true
}

// vector fills row with the feature values of pair p: one merge per cell
// group, shared by the group's features, then the direct computations.
func (pl *plan) vector(row []float64, feats []Feature, cells *prepared, left, right *table.Table, p block.Pair) {
	if len(pl.groups) > 0 {
		ls, rs := cells.slots(p)
		for g, grp := range pl.groups {
			inter, la, lb, ok := cells.counts(g, ls, rs)
			for n, k := range grp.feats {
				if ok {
					row[k] = grp.ratios[n](inter, la, lb)
				} else {
					row[k] = math.NaN()
				}
			}
		}
	}
	for _, k := range pl.direct {
		row[k] = feats[k].Compute(left.Row(p.A)[pl.lj[k]], right.Row(p.B)[pl.rj[k]])
	}
}

// sortedRows returns the distinct values of row over pairs, ascending.
func sortedRows(pairs []block.Pair, row func(block.Pair) int) []int {
	rows := make([]int, len(pairs))
	for i, q := range pairs {
		rows[i] = row(q)
	}
	slices.Sort(rows)
	return slices.Compact(rows)
}

// prepare tokenises, in parallel, every cell the plan's groups need from
// the rows pairs reference; right cells come from bound when the set has
// them for this right table.
func (pl *plan) prepare(ctx context.Context, left, right *table.Table, pairs []block.Pair, bound *rightCells) (*prepared, error) {
	p := &prepared{}
	if len(pl.groups) == 0 {
		return p, nil
	}
	p.leftRows = sortedRows(pairs, func(q block.Pair) int { return q.A })
	if p.bound = bound.of(pl.groups); p.bound == nil {
		p.rightRows = sortedRows(pairs, func(q block.Pair) int { return q.B })
	}
	stride := p.stride()
	if p.bound != nil {
		p.left = make([]idCell, len(pl.groups)*stride)
	} else {
		p.cells = make([]cell, len(pl.groups)*stride)
	}
	err := parallel.ForWorkersCtx(ctx, stride, fanOut(stride), func(slot int) error {
		for g, grp := range pl.groups {
			switch {
			case slot >= len(p.leftRows):
				p.cells[g*stride+slot] = grp.form.prepare(right.Row(p.rightRows[slot-len(p.leftRows)])[grp.rj])
			case p.bound == nil:
				p.cells[g*stride+slot] = grp.form.prepare(left.Row(p.leftRows[slot])[grp.lj])
			default:
				p.left[g*stride+slot] = p.bound[g].cellOf(left.Row(p.leftRows[slot])[grp.lj])
			}
		}
		return nil
	})
	if err == nil {
		return p, nil
	}
	if ctx.Err() != nil {
		return nil, err
	}
	// Only a tokenizer bug can fail here, and the index it carries is a
	// row slot: %v drops it so no caller mistakes it for a pair index.
	return nil, fmt.Errorf("prepare cells: %v", err)
}

// rightCells is a feature set's prepared right side: for each (column,
// form) its set features use, the cells of every row of one right table.
// It is immutable once built.
type rightCells struct {
	groups []*boundCells
}

// boundCells is one right column under one form, every row prepared. Held
// for a server's lifetime, the cells are kept small: a token is its id in
// the column's dictionary (four bytes where a string header is sixteen,
// and each distinct token's text is held once), sorted by id.
type boundCells struct {
	rj    int
	form  cellForm
	ids   map[string]uint32
	cells []idCell
}

// idCell is a cell of a bound column, or one prepared to be compared with
// it: its tokens as sorted ids in the column's dictionary. n counts the
// cell's distinct tokens, those the dictionary lacks included — they can
// match nothing in the column, so they have no id here.
type idCell struct {
	ids  []uint32
	n    int
	null bool
}

// build prepares every row of right; it is the only writer of ids.
func (b *boundCells) build(right *table.Table) {
	for i := range b.cells {
		c := b.form.prepare(right.Row(i)[b.rj])
		for _, t := range c.toks {
			if _, ok := b.ids[t]; !ok {
				// A token is a window of its cell's text; the clone
				// keeps the dictionary from pinning every cell.
				b.ids[strings.Clone(t)] = uint32(len(b.ids))
			}
		}
		b.cells[i] = b.inIDs(c)
	}
}

// cellOf prepares v, a cell to compare with this column's, in the
// column's ids.
func (b *boundCells) cellOf(v table.Value) idCell { return b.inIDs(b.form.prepare(v)) }

func (b *boundCells) inIDs(c cell) idCell {
	if c.null {
		return idCell{null: true}
	}
	ids := make([]uint32, 0, len(c.toks))
	for _, t := range c.toks {
		if id, ok := b.ids[t]; ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return idCell{ids: ids, n: len(c.toks)}
}

// Bind prepares the right table's cells now, once, so VectorizeCtx over
// right tokenises only the left rows of its pairs — what a server does
// with its reference table at start-up. Against any other right table, or
// this one after it has grown, VectorizeCtx prepares the right cells its
// pairs reference per call, as an unbound set does; so it does when Bind
// could not prepare them (a feature's column is missing from right — the
// error is VectorizeCtx's to report) and for features added after Bind.
func (s *Set) Bind(right *table.Table) {
	s.bound.Drop()
	_, _ = s.bound.Get(context.Background(), right, s.prepareRight)
}

func (s *Set) prepareRight(ctx context.Context, right *table.Table) (*rightCells, error) {
	rc := &rightCells{}
	for _, f := range s.Features {
		sim := computeRegistry[f.Func]
		if sim.ratio == nil {
			continue
		}
		rj, err := right.Col(f.RightCol)
		if err != nil {
			return nil, err
		}
		if rc.cellsOf(rj, sim.form) == nil {
			rc.groups = append(rc.groups, &boundCells{rj: rj, form: sim.form, ids: map[string]uint32{}, cells: make([]idCell, right.Len())})
		}
	}
	// A column's dictionary grows row by row, so the fan-out is over
	// columns.
	return rc, parallel.ForWorkersCtx(ctx, len(rc.groups), runtime.GOMAXPROCS(0), func(g int) error {
		rc.groups[g].build(right)
		return nil
	})
}

// cellsOf returns the bound cells of column rj under form, or nil.
func (rc *rightCells) cellsOf(rj int, form cellForm) *boundCells {
	for _, g := range rc.groups {
		if g.rj == rj && g.form == form {
			return g
		}
	}
	return nil
}

// of returns the bound cells of each plan group's right column, or nil
// when rc (which may be nil) lacks any of them.
func (rc *rightCells) of(groups []cellGroup) []*boundCells {
	if rc == nil {
		return nil
	}
	out := make([]*boundCells, len(groups))
	for g, grp := range groups {
		if out[g] = rc.cellsOf(grp.rj, grp.form); out[g] == nil {
			return nil
		}
	}
	return out
}
