package feature

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"

	"emgo/internal/block"
	"emgo/internal/fault"
	"emgo/internal/parallel"
	"emgo/internal/simfunc"
	"emgo/internal/table"
)

// A set similarity is a ratio of three counts over the distinct tokens of
// the two cells. Tokenising a cell and building its set costs far more
// than comparing two sets, and a row appears in many candidate pairs, so
// VectorizeCtx prepares each referenced cell once per call — its distinct
// tokens under each form the feature set uses, as the sorted integer keys
// of a block.Column, the token column the blockers probe — and every pair
// is then one merge over two prepared cells: no map, no allocation.

// setSim builds the registry entry of a set similarity. Its per-pair
// compute is the prepared computation over a column of the one right cell,
// so Feature.Compute and VectorizeCtx share one definition.
func setSim(form block.Form, ratio func(inter, la, lb int) float64) similarity {
	sim := similarity{compute: func(a, b table.Value) float64 {
		col := block.NewColumn(form, true)
		kb, nullB := col.AppendKeys(nil, b, true)
		ka, nullA := col.AppendKeys(nil, a, false)
		if nullA || nullB {
			return math.NaN()
		}
		return ratio(simfunc.SortedIntersectionSize(ka, kb), len(ka), len(kb))
	}}
	// Under a form no column can be shared for (block.Form.Same), the
	// per-pair compute is all there is.
	if form.Same(form) {
		sim.form, sim.ratio = form, ratio
	}
	return sim
}

// cellGroup is the set features of a feature set that share one prepared
// cell pair — same columns, same form — and therefore one intersection
// per candidate pair.
type cellGroup struct {
	lj, rj int
	form   block.Form
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
// closures (empty Func) and every other similarity stay direct; a feature
// the set does not read (Restrict) is neither, though its columns must
// still resolve — the tables a restricted set accepts are the full set's.
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
		if !s.reads(k) {
			continue
		}
		sim := computeRegistry[f.Func]
		if sim.ratio == nil {
			pl.direct = append(pl.direct, k)
			continue
		}
		g := 0
		for g < len(pl.groups) && (pl.groups[g].lj != lj || pl.groups[g].rj != rj || !pl.groups[g].form.Same(sim.form)) {
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
// group the column of its right cells — the bound set's (Bind), which has
// every row, or one built for this call over exactly the right rows the
// pairs reference — and the left cells of the rows they reference, in
// that column's keys. Row slots are positions in the sorted distinct row
// lists, so nothing a call keeps is sized by a table.
type prepared struct {
	leftRows  []int
	rightRows []int // nil when cols hold every row of the right table
	cols      []*block.Column
	left      []block.Cell // group-major: left[g*len(leftRows)+slot]
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
	a, b := p.left[g*len(p.leftRows)+ls], p.cols[g].Cell(rs)
	if a.Null || b.Null {
		return 0, 0, 0, false
	}
	return simfunc.SortedIntersectionSize(a.Keys, b.Keys), len(a.Keys), len(b.Keys), true
}

// vector fills row with the feature values of pair p: one merge per cell
// group, shared by the group's features, then the direct computations; a
// feature s does not read is in neither, and its slot is NaN.
func (pl *plan) vector(row []float64, s *Set, cells *prepared, left, right *table.Table, p block.Pair) {
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
		row[k] = s.Features[k].Compute(left.Row(p.A)[pl.lj[k]], right.Row(p.B)[pl.rj[k]])
	}
	for k, read := range s.read {
		if !read {
			row[k] = math.NaN()
		}
	}
}

// sortedRows returns the distinct values of row over pairs — rows of a
// table of n rows — ascending: each is marked in a bitmap of the table's
// rows, and the marks are swept in order.
func sortedRows(pairs []block.Pair, n int, row func(block.Pair) int) []int {
	var stack [64]uint64 // a table of up to 4,096 rows marks on the stack
	marks := stack[:0]
	if words := (n + 63) / 64; words <= len(stack) {
		marks = stack[:words]
	} else {
		marks = make([]uint64, words)
	}
	distinct := 0
	for _, q := range pairs {
		r := row(q)
		if w, bit := r/64, uint64(1)<<(r%64); marks[w]&bit == 0 {
			marks[w] |= bit
			distinct++
		}
	}
	rows := make([]int, 0, distinct)
	for w, m := range marks {
		for ; m != 0; m &= m - 1 {
			rows = append(rows, w*64+bits.TrailingZeros64(m))
		}
	}
	return rows
}

// prepare readies every cell the plan's groups need from the rows pairs
// reference: the right columns — a bound set's, else built now, as Bind
// builds them, over those rows only — then, in parallel, each left row's
// cells, one array a row.
func (pl *plan) prepare(ctx context.Context, s *Set, left, right *table.Table, pairs []block.Pair) (*prepared, error) {
	p := &prepared{}
	if len(pl.groups) == 0 {
		return p, nil
	}
	var err error
	p.leftRows = sortedRows(pairs, left.Len(), func(q block.Pair) int { return q.A })
	if p.cols = s.cells.of(pl.groups); p.cols == nil {
		p.rightRows = sortedRows(pairs, right.Len(), func(q block.Pair) int { return q.B })
		var rc *rightCells
		rc, err = s.prepareRight(ctx, right, p.rightRows, nil)
		p.cols = rc.of(pl.groups)
	}
	if err == nil {
		n := len(p.leftRows)
		p.left = make([]block.Cell, len(pl.groups)*n)
		err = parallel.ForWorkersCtx(ctx, n, fanOut(n), func(slot int) error {
			row := left.Row(p.leftRows[slot])
			size := 0
			for g := range pl.groups {
				size += len(row[pl.groups[g].lj].Str())
			}
			keys := make([]uint64, 0, size)
			for g := range pl.groups {
				start, null := len(keys), false
				keys, null = p.cols[g].AppendKeys(keys, row[pl.groups[g].lj], false)
				p.left[g*n+slot] = block.Cell{Keys: keys[start:len(keys):len(keys)], Null: null}
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
// (right column, form) its set features use, all over the same rows of one
// table. cols[i] is over right column rj[i].
type rightCells struct {
	rj   []int
	cols []*block.Column
}

// Bind returns the set bound to right: the same features and read marks,
// with the right table's cells prepared now, once, so VectorizeCtx over
// right tokenises only the left rows of its pairs — what a server does
// with its reference table at start-up. A column of built — the bound
// blockers' (block.Columns) — over every row of the same right column,
// under a form that gives the same tokens and keys as the set's, is read
// in place of one of its own; only the columns left over are built. s is
// left as it is. The bound set answers about right only — asked about
// another table, VectorizeCtx returns an error naming both — and takes no
// new feature. Bind fails when a read feature's column is missing from
// right, ctx ends first, or the "feature.bind" fault site fires: the
// error a server refuses to start or to swap a matcher in on.
func (s *Set) Bind(ctx context.Context, right *table.Table, built ...*block.Column) (*Set, error) {
	if err := fault.Inject("feature.bind"); err != nil {
		return nil, err
	}
	cells, err := s.prepareRight(ctx, right, nil, built)
	if err != nil {
		return nil, err
	}
	n := len(s.Features)
	return &Set{Features: s.Features[:n:n], read: s.read, right: right, cells: cells}, nil
}

// prepareRight readies the right columns of the set features the set
// reads over rows of right — nil for every row: each is a column of built
// when one will do, else built now.
func (s *Set) prepareRight(ctx context.Context, right *table.Table, rows []int, built []*block.Column) (*rightCells, error) {
	rc := &rightCells{}
	var fresh []int // the columns of rc to build
	for k, f := range s.Features {
		sim := computeRegistry[f.Func]
		if sim.ratio == nil || !s.reads(k) {
			continue
		}
		rj, err := right.Col(f.RightCol)
		if err != nil {
			return nil, err
		}
		if rc.column(rj, sim.form) != nil {
			continue
		}
		col := reuse(built, right, rj, sim.form)
		if col == nil {
			fresh, col = append(fresh, len(rc.cols)), block.NewColumn(sim.form, true)
		}
		rc.rj, rc.cols = append(rc.rj, rj), append(rc.cols, col)
	}
	n := len(rows)
	if rows == nil {
		n = right.Len()
	}
	// A column's dictionary grows row by row, so the fan-out is over
	// columns. Only ctx cuts a build short; it is reported here, bare, not
	// under a column's index, which is no pair's.
	err := parallel.ForWorkersCtx(ctx, len(fresh), fanOut(n), func(i int) error {
		g := fresh[i]
		_ = rc.cols[g].Build(ctx, right, rc.rj[g], rows)
		return nil
	})
	return rc, cmp.Or(err, ctx.Err())
}

// reuse returns the column of built over every row of column rj of right
// that the set would build under form, or nil: the same tokens, keyed the
// same way — a packed q-gram column is never a blocker's numbered one.
func reuse(built []*block.Column, right *table.Table, rj int, form block.Form) *block.Column {
	for _, c := range built {
		if c.Over(right, rj) && c.Form().Same(form) && c.Packed() == form.Packs() {
			return c
		}
	}
	return nil
}

// column returns the column of right column rj under form, or nil.
func (rc *rightCells) column(rj int, form block.Form) *block.Column {
	for i, c := range rc.cols {
		if rc.rj[i] == rj && c.Form().Same(form) {
			return c
		}
	}
	return nil
}

// of returns the column of each plan group, or nil when rc (which may be
// nil) lacks any of them.
func (rc *rightCells) of(groups []cellGroup) []*block.Column {
	if rc == nil {
		return nil
	}
	out := make([]*block.Column, len(groups))
	for g, grp := range groups {
		if out[g] = rc.column(grp.rj, grp.form); out[g] == nil {
			return nil
		}
	}
	return out
}
