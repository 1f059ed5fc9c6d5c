package feature

import (
	"cmp"
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
// VectorizeCtx prepares each referenced cell once per call — its distinct
// tokens under each form the feature set uses, as sorted integer keys —
// and every pair is then one merge over two prepared cells: no map, no
// allocation. Only the counts enter a ratio, so any integers will do that
// equal tokens, and only they, share.

// cellForm says how a cell's text becomes a token set: optional
// lowercasing (the Section 9 case-insensitive variants), then tok.
type cellForm struct {
	tok   tokenize.Tokenizer
	lower bool
}

// cell is one prepared table cell: a key per distinct token, ascending.
type cell struct {
	keys []uint64
	null bool
}

// column is one right-table column under one form: the cells of the rows
// it was built over and, unless a token of the form is its own key
// (tokenize.QGram.Packs), the dictionary numbering them. Built, it is
// immutable.
type column struct {
	rj    int
	form  cellForm
	ids   map[string]uint64 // nil when tokens are their own keys
	cells []cell
}

func newColumn(rj int, form cellForm) *column {
	c := &column{rj: rj, form: form}
	if g, ok := form.tok.(tokenize.QGram); !ok || !g.Packs() {
		c.ids = map[string]uint64{}
	}
	return c
}

// appendKeys appends the keys of v's cell to dst, sorted; null reports a
// null cell, which has none. With add — build's, the only writer of ids —
// a token new to the dictionary joins it. Without, v is a cell to compare
// with the column's: a token the dictionary lacks matches nothing there,
// so each gets a key past the dictionary's and a cell's size stays
// len(keys).
func (c *column) appendKeys(dst []uint64, v table.Value, add bool) (_ []uint64, null bool) {
	if v.IsNull() {
		return dst, true
	}
	start, s := len(dst), v.Str()
	if c.ids == nil {
		dst = c.form.tok.(tokenize.QGram).AppendKeys(dst, s, c.form.lower)
		return dst[:start+len(tokenize.SortDistinct(dst[start:]))], false
	}
	if c.form.lower {
		s = tokenize.Lower(s)
	}
	var buf [32]string // room for most cells' tokens without allocating
	toks := buf[:0]
	if w, ok := c.form.tok.(tokenize.Word); ok {
		toks = w.AppendTokens(toks, s)
	} else {
		toks = c.form.tok.Tokens(s)
	}
	unseen := 0
	for _, t := range tokenize.SortDistinct(toks) {
		id, ok := c.ids[t]
		switch {
		case ok:
		case add:
			// A token is a window of its cell's text; the clone keeps
			// the dictionary from pinning every cell.
			id = uint64(len(c.ids))
			c.ids[strings.Clone(t)] = id
		default:
			unseen++
			continue
		}
		dst = append(dst, id)
	}
	slices.Sort(dst[start:])
	for k := 0; k < unseen; k++ {
		dst = append(dst, uint64(len(c.ids)+k))
	}
	return dst, false
}

// arenaChunk is how many keys a column's cells share an array in.
const arenaChunk = 4096

// build prepares the cells of rows of right, each a window of an array
// shared with its neighbours; a cancelled ctx cuts it short.
func (c *column) build(ctx context.Context, right *table.Table, rows []int) {
	c.cells = make([]cell, len(rows))
	var arena []uint64
	for i, row := range rows {
		if i%1024 == 0 && ctx.Err() != nil {
			return
		}
		v := right.Row(row)[c.rj]
		// No built-in form has more tokens than bytes; past one that
		// does, append grows the array and earlier windows keep theirs.
		if need := len(v.Str()); cap(arena)-len(arena) < need {
			arena = make([]uint64, 0, max(need, min(arenaChunk, need*(len(rows)-i))))
		}
		start, null := len(arena), false
		arena, null = c.appendKeys(arena, v, true)
		c.cells[i] = cell{keys: arena[start:len(arena):len(arena)], null: null}
	}
}

// setSim builds the registry entry of a set similarity. Its per-pair
// compute is the prepared computation over a column of the one right cell,
// so Feature.Compute and VectorizeCtx share one definition.
func setSim(form cellForm, ratio func(inter, la, lb int) float64) similarity {
	return similarity{
		compute: func(a, b table.Value) float64 {
			col := newColumn(0, form)
			kb, nullB := col.appendKeys(nil, b, true)
			ka, nullA := col.appendKeys(nil, a, false)
			if nullA || nullB {
				return math.NaN()
			}
			return ratio(simfunc.SortedIntersectionSize(ka, kb), len(ka), len(kb))
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

// prepared holds the cells a pair list's vectors are computed from: per
// group the column of its right cells — the set's bound one (Bind), which
// has every row, or one built for this call over exactly the right rows
// the pairs reference — and the left cells of the rows they reference, in
// that column's keys. Row slots are positions in the sorted distinct row
// lists, so nothing built per call is sized by a table.
type prepared struct {
	leftRows  []int
	rightRows []int // nil when cols hold every row of the right table
	cols      []*column
	left      []cell // group-major: left[g*len(leftRows)+slot]
}

// slots returns where pair q's rows sit in every group's cells: positions
// in the sorted row lists, or, in a column of every row, the row itself.
func (p *prepared) slots(q block.Pair) (ls, rs int) {
	ls = sort.SearchInts(p.leftRows, q.A)
	if p.rightRows == nil {
		return ls, q.B
	}
	return ls, sort.SearchInts(p.rightRows, q.B)
}

// counts returns |A∩B|, |A| and |B| over group g's two cells at the given
// slots; ok is false when either cell is null.
func (p *prepared) counts(g, ls, rs int) (inter, la, lb int, ok bool) {
	a, b := &p.left[g*len(p.leftRows)+ls], &p.cols[g].cells[rs]
	if a.null || b.null {
		return 0, 0, 0, false
	}
	return simfunc.SortedIntersectionSize(a.keys, b.keys), len(a.keys), len(b.keys), true
}

// vector fills row with the feature values of pair p: one merge per cell
// group, shared by the group's features, then the direct computations.
func (pl *plan) vector(row []float64, feats []Feature, cells *prepared, left, right *table.Table, p block.Pair) {
	if len(pl.groups) > 0 {
		ls, rs := cells.slots(p)
		for g := range pl.groups {
			grp := &pl.groups[g]
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

// prepare readies every cell the plan's groups need from the rows pairs
// reference: the right columns — the set's bound ones when it has them
// for this right table, else built now, as Bind builds them, over those
// rows only — then, in parallel, each left row's cells, one array a row.
func (pl *plan) prepare(ctx context.Context, s *Set, left, right *table.Table, pairs []block.Pair) (*prepared, error) {
	p := &prepared{}
	if len(pl.groups) == 0 {
		return p, nil
	}
	var err error
	p.leftRows = sortedRows(pairs, func(q block.Pair) int { return q.A })
	if p.cols = s.bound.Current(right).of(pl.groups); p.cols == nil {
		p.rightRows = sortedRows(pairs, func(q block.Pair) int { return q.B })
		var rc *rightCells
		rc, err = s.prepareRight(ctx, right, p.rightRows)
		p.cols = rc.of(pl.groups)
	}
	if err == nil {
		n := len(p.leftRows)
		p.left = make([]cell, len(pl.groups)*n)
		err = parallel.ForWorkersCtx(ctx, n, fanOut(n), func(slot int) error {
			row := left.Row(p.leftRows[slot])
			size := 0
			for g := range pl.groups {
				size += len(row[pl.groups[g].lj].Str())
			}
			keys := make([]uint64, 0, size)
			for g := range pl.groups {
				start, null := len(keys), false
				keys, null = p.cols[g].appendKeys(keys, row[pl.groups[g].lj], false)
				p.left[g*n+slot] = cell{keys: keys[start:len(keys):len(keys)], null: null}
			}
			return nil
		})
	}
	if err != nil && ctx.Err() == nil {
		// Only a tokenizer bug can fail here, and the index it carries is
		// a row slot or a column: %v drops it so no caller mistakes it
		// for a pair index.
		err = fmt.Errorf("prepare cells: %v", err)
	}
	return p, err
}

// rightCells is a feature set's prepared right side: a column for each
// (column, form) its set features use, all over the same rows of one table.
type rightCells struct {
	cols []*column
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
	_, _ = s.bound.Get(context.Background(), right, func(ctx context.Context, right *table.Table) (*rightCells, error) {
		rows := make([]int, right.Len())
		for i := range rows {
			rows[i] = i
		}
		return s.prepareRight(ctx, right, rows)
	})
}

// prepareRight builds the set's right columns over rows of right.
func (s *Set) prepareRight(ctx context.Context, right *table.Table, rows []int) (*rightCells, error) {
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
		if rc.column(rj, sim.form) == nil {
			rc.cols = append(rc.cols, newColumn(rj, sim.form))
		}
	}
	// A column's dictionary grows row by row, so the fan-out is over
	// columns.
	err := parallel.ForWorkersCtx(ctx, len(rc.cols), fanOut(len(rows)), func(g int) error {
		rc.cols[g].build(ctx, right, rows)
		return nil
	})
	return rc, cmp.Or(err, ctx.Err()) // a build cut short is no column
}

// column returns the column of right column rj under form, or nil.
func (rc *rightCells) column(rj int, form cellForm) *column {
	for _, c := range rc.cols {
		if c.rj == rj && c.form == form {
			return c
		}
	}
	return nil
}

// of returns the column of each plan group, or nil when rc (which may be
// nil) lacks any of them.
func (rc *rightCells) of(groups []cellGroup) []*column {
	if rc == nil {
		return nil
	}
	out := make([]*column, len(groups))
	for g, grp := range groups {
		if out[g] = rc.column(grp.rj, grp.form); out[g] == nil {
			return nil
		}
	}
	return out
}
