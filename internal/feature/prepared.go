package feature

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

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

// plan is a feature set bound to a table pair's schemas.
type plan struct {
	lj, rj []int // per feature: left and right column index
	groups []cellGroup
	direct []int // features computed by Feature.Compute
}

// bind resolves the set's columns against left and right and splits its
// features into prepared groups and direct computations. A feature is
// prepared when its Func names a set similarity of the registry; custom
// closures (empty Func) and every other similarity stay direct.
func (s *Set) bind(left, right *table.Table) (*plan, error) {
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

// prepared holds the cells of exactly the rows a pair list references.
// Row slots are positions in the sorted distinct row lists, so nothing
// here is sized by a table — a one-record request against a large right
// table prepares only its own candidates.
type prepared struct {
	leftRows, rightRows []int
	// cells is group-major: group g's left cells, then its right cells.
	cells []cell
}

func (p *prepared) stride() int { return len(p.leftRows) + len(p.rightRows) }

// pair returns group g's two cells for the rows at the given slots.
func (p *prepared) pair(g, leftSlot, rightSlot int) (cell, cell) {
	base := g * p.stride()
	return p.cells[base+leftSlot], p.cells[base+len(p.leftRows)+rightSlot]
}

// vector fills row with the feature values of pair p: one merge per cell
// group, shared by the group's features, then the direct computations.
func (pl *plan) vector(row []float64, feats []Feature, cells *prepared, left, right *table.Table, p block.Pair) {
	if len(pl.groups) > 0 {
		ls, rs := sort.SearchInts(cells.leftRows, p.A), sort.SearchInts(cells.rightRows, p.B)
		for g, grp := range pl.groups {
			a, b := cells.pair(g, ls, rs)
			if a.null || b.null {
				for _, k := range grp.feats {
					row[k] = math.NaN()
				}
				continue
			}
			inter := simfunc.SortedIntersectionSize(a.toks, b.toks)
			for n, k := range grp.feats {
				row[k] = grp.ratios[n](inter, len(a.toks), len(b.toks))
			}
		}
	}
	for _, k := range pl.direct {
		row[k] = feats[k].Compute(left.Row(p.A)[pl.lj[k]], right.Row(p.B)[pl.rj[k]])
	}
}

// prepare tokenises, in parallel, every cell the plan's groups need from
// the rows pairs reference.
func (pl *plan) prepare(ctx context.Context, left, right *table.Table, pairs []block.Pair) (*prepared, error) {
	p := &prepared{}
	if len(pl.groups) == 0 {
		return p, nil
	}
	p.leftRows, p.rightRows = make([]int, len(pairs)), make([]int, len(pairs))
	for i, q := range pairs {
		p.leftRows[i], p.rightRows[i] = q.A, q.B
	}
	slices.Sort(p.leftRows)
	slices.Sort(p.rightRows)
	p.leftRows, p.rightRows = slices.Compact(p.leftRows), slices.Compact(p.rightRows)
	stride := p.stride()
	p.cells = make([]cell, len(pl.groups)*stride)
	err := parallel.ForWorkersCtx(ctx, stride, fanOut(stride), func(slot int) error {
		for g, grp := range pl.groups {
			if slot < len(p.leftRows) {
				p.cells[g*stride+slot] = grp.form.prepare(left.Row(p.leftRows[slot])[grp.lj])
			} else {
				p.cells[g*stride+slot] = grp.form.prepare(right.Row(p.rightRows[slot-len(p.leftRows)])[grp.rj])
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
