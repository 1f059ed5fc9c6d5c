package block

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"

	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// Every verdict of a token blocker and every set-similarity feature is a
// function of three counts over two cells' distinct tokens — |A∩B|, |A|
// and |B| — so any integers will do for tokens that equal tokens, and only
// they, share. This file is that data format, once: a right-table column
// under a token form is a dictionary numbering its tokens plus each row's
// distinct token keys, ascending. The blockers derive postings from it
// (tokenColumn) and probe; a feature set merges its cells pair by pair.

// Fold is what happens to a cell's text before it is tokenised.
type Fold uint8

const (
	// FoldNone tokenises the text as it stands.
	FoldNone Fold = iota
	// FoldLower lowercases it: the Section 9 case-insensitive features.
	FoldLower
	// FoldNormalize lowercases it and strips special characters: the
	// Section 7 pre-blocking normalization.
	FoldNormalize
)

// Form says how a cell's text becomes its token set: Fold, then Tok.
type Form struct {
	Tok  tokenize.Tokenizer
	Fold Fold
}

// Same reports whether f and g turn every cell into the same tokens, so
// that one column serves both. Tokenizers of a type that cannot be
// compared never share — not even one with itself.
func (f Form) Same(g Form) bool {
	t := reflect.TypeOf(f.Tok)
	return f.Fold == g.Fold && t != nil && t == reflect.TypeOf(g.Tok) && t.Comparable() && f.Tok == g.Tok
}

// Cell is one prepared table cell: a key per distinct token, ascending. A
// null cell has none, and says so: an empty cell is a set of size 0, a
// null one is no set.
type Cell struct {
	Keys []uint64
	Null bool
}

// Column is one right-table column under one form: the dictionary
// numbering its tokens — unless a token is its own key — and the cells of
// the rows it was built over. Built, it is immutable, so any number of
// readers may share it.
type Column struct {
	form  Form
	ids   map[string]uint64 // nil when tokens are their own keys
	cells []Cell
}

// NewColumn returns an empty column under form. With pack, a form whose
// tokens each fit a key (tokenize.QGram.Packs) gets no dictionary: a
// feature set's 3-gram columns. Without, tokens are numbered densely from
// 0 in order of first appearance, which is what postings index by.
func NewColumn(form Form, pack bool) *Column {
	c := &Column{form: form}
	if g, ok := form.Tok.(tokenize.QGram); !pack || !ok || !g.Packs() {
		c.ids = map[string]uint64{}
	}
	return c
}

// Form returns the form the column was made under.
func (c *Column) Form() Form { return c.form }

// Packed reports whether the column's tokens are their own keys.
func (c *Column) Packed() bool { return c.ids == nil }

// Cell returns the cell of the i-th row the column was built over.
func (c *Column) Cell(i int) Cell { return c.cells[i] }

// AppendKeys appends the keys of v's cell to dst, sorted; null reports a
// null cell, which has none. With add — Build's, and whoever prepares a
// lone cell in a column of its own — a token new to the dictionary joins
// it; never on a built column. Without, v is a cell to compare with the
// column's: a token the dictionary lacks matches nothing there, so each
// gets a key past the dictionary's — after every key that can match — and
// a cell's size stays len(keys).
func (c *Column) AppendKeys(dst []uint64, v table.Value, add bool) (_ []uint64, null bool) {
	if v.IsNull() {
		return dst, true
	}
	start, s := len(dst), v.Str()
	switch {
	case c.form.Fold == FoldNormalize:
		s = tokenize.Normalize(s)
	case c.form.Fold == FoldLower && !c.Packed():
		s = tokenize.Lower(s)
	}
	if c.Packed() {
		// Packed grams read their lower case rune by rune, uncopied.
		dst = c.form.Tok.(tokenize.QGram).AppendKeys(dst, s, c.form.Fold == FoldLower)
		return dst[:start+len(tokenize.SortDistinct(dst[start:]))], false
	}
	var buf [32]string // room for most cells' tokens without allocating
	toks := buf[:0]
	if w, ok := c.form.Tok.(tokenize.Word); ok {
		toks = w.AppendTokens(toks, s)
	} else {
		toks = c.form.Tok.Tokens(s)
	}
	toks = tokenize.SortDistinct(toks)
	dst = slices.Grow(dst, len(toks))
	unseen := 0
	for _, t := range toks {
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

// Build prepares the cells of column rj of right over rows — nil for
// every row, in order — each a window of an array shared with its
// neighbours. A build cut short by ctx is an error, never a partial
// column.
func (c *Column) Build(ctx context.Context, right *table.Table, rj int, rows []int) error {
	n := len(rows)
	if rows == nil {
		n = right.Len()
	}
	cells := make([]Cell, n)
	var arena []uint64
	for i := range cells {
		if err := strideErr(ctx, i); err != nil {
			return err
		}
		row := i
		if rows != nil {
			row = rows[i]
		}
		v := right.Row(row)[rj]
		// No built-in form has more tokens than bytes; past one that
		// does, append grows the array and earlier windows keep theirs.
		if need := len(v.Str()); cap(arena)-len(arena) < need {
			arena = make([]uint64, 0, max(need, min(arenaChunk, need*(n-i))))
		}
		start, null := len(arena), false
		arena, null = c.AppendKeys(arena, v, true)
		cells[i] = Cell{Keys: arena[start:len(arena):len(arena)], Null: null}
	}
	c.cells = cells
	return nil
}

// tokenColumn is a column as the blockers and the blocking debugger read
// it: every row of the right table, numbered densely, plus what is derived
// from its cells — each token's postings (the rows holding it, ascending)
// and each row's token count — and the probe state its readers share.
type tokenColumn struct {
	*Column
	// Token id's postings are rows[start[id]:start[id+1]].
	start []int32
	rows  []int32
	// lens[r] is row r's token count, len(Cell(r).Keys); maxLen the most.
	lens   []int32
	maxLen int
	// scratch holds *scratch sized to the column, reset, for any number
	// of concurrent probes to take and give back.
	scratch sync.Pool
}

// buildTokenColumn tokenises the named column of right once.
func buildTokenColumn(ctx context.Context, right *table.Table, col string, form Form) (*tokenColumn, error) {
	rj, err := right.Col(col)
	if err != nil {
		return nil, err
	}
	c := &tokenColumn{Column: NewColumn(form, false)}
	if err := c.Build(ctx, right, rj, nil); err != nil {
		return nil, err
	}
	c.scratch.New = func() any { return &scratch{counts: make([]int32, len(c.cells))} }
	c.start = make([]int32, len(c.ids)+1)
	c.lens = make([]int32, len(c.cells))
	for r, cell := range c.cells {
		c.lens[r] = int32(len(cell.Keys))
		c.maxLen = max(c.maxLen, len(cell.Keys))
		for _, id := range cell.Keys {
			c.start[id+1]++ // how many rows hold the token, for now
		}
	}
	for id := 1; id < len(c.start); id++ {
		c.start[id] += c.start[id-1]
	}
	c.rows = make([]int32, c.start[len(c.ids)])
	next := slices.Clone(c.start[:len(c.ids)])
	for i, cell := range c.cells {
		for _, id := range cell.Keys {
			c.rows[next[id]] = int32(i)
			next[id]++
		}
	}
	return c, nil
}

// scratch is one call's probe state: the probing cell's keys, per right
// row how many of them it holds, and the rows with a non-zero count — and,
// for a token join, what its probe kept: the right rows some blocker
// admits with their counts, left row by left row; per left row that
// reached any, its size and where its hits end; and per blocker how many
// pairs it admits.
type scratch struct {
	keys     []uint64
	counts   []int32
	touched  []int32
	hits     []hit
	lefts    []leftHits
	admitted []int
}

// hit is a right row a join kept and the tokens it shares with the left
// row probed.
type hit struct{ row, inter int32 }

// leftHits is a probed left row, its token count and the end of its hits.
type leftHits struct{ row, size, end int32 }

// getScratch lends a call the column's probe state; putScratch takes it
// back. Nothing a request allocates grows with the right table.
func (c *tokenColumn) getScratch() *scratch { return c.scratch.Get().(*scratch) }

func (c *tokenColumn) putScratch(s *scratch) {
	s.reset()
	s.hits, s.lefts = s.hits[:0], s.lefts[:0]
	c.scratch.Put(s)
}

// probe counts, for every right row, the tokens it shares with keys (a
// cell's, from AppendKeys without add). The rows reached are s.touched, in
// no particular order; the caller reads their counts and then resets.
func (c *tokenColumn) probe(keys []uint64, s *scratch) {
	known := uint64(len(c.ids))
	for _, id := range keys {
		if id >= known {
			break // the rest are tokens the column lacks
		}
		for _, r := range c.rows[c.start[id]:c.start[id+1]] {
			if s.counts[r] == 0 {
				s.touched = append(s.touched, r)
			}
			s.counts[r]++
		}
	}
}

// reset clears the counts the last probe left.
func (s *scratch) reset() {
	for _, r := range s.touched {
		s.counts[r] = 0
	}
	s.touched = s.touched[:0]
}

// Prepared is what is prepared from a right table — a token column, a key
// index, a rule engine's keyed join, a feature set's cells: built once by
// whoever needs it first (callers racing on a cold one wait for that
// build), then shared. It is current for that same table until the table
// grows (tables grow by Append). The zero value is empty and ready.
type Prepared[T any] struct {
	mu    sync.Mutex
	right *table.Table
	rows  int
	v     *T
}

func (p *Prepared[T]) currentLocked(right *table.Table) *T {
	if p.right == right && p.rows == right.Len() {
		return p.v
	}
	return nil
}

// Current returns what is prepared for right as it stands, or nil.
func (p *Prepared[T]) Current(right *table.Table) *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.currentLocked(right)
}

// Get returns what is prepared for right, building and keeping it first
// if need be. The build runs under the lock — that is the wait cold
// callers share — so it must not call back into whatever holds p. A build
// may return nil for "nothing to prepare"; it is then asked again.
func (p *Prepared[T]) Get(ctx context.Context, right *table.Table, build func(context.Context, *table.Table) (*T, error)) (*T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v := p.currentLocked(right); v != nil {
		return v, nil
	}
	v, err := build(ctx, right)
	if err != nil {
		return nil, err
	}
	p.right, p.rows, p.v = right, right.Len(), v
	return v, nil
}

// Drop forgets what is prepared.
func (p *Prepared[T]) Drop() {
	p.mu.Lock()
	p.v = nil
	p.mu.Unlock()
}
