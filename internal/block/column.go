package block

import (
	"context"
	"reflect"
	"strings"
	"sync"

	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// Everything a token blocker needs from the right table — its cells'
// distinct tokens and the rows holding each token — depends on the table,
// the column and how a cell becomes tokens, not on the left rows or the
// blocker's threshold. This file prepares that once as a token column and
// answers every blocker, and the blocking debugger, from one probe over it.

// tokenForm says how a cell's text becomes its blocking tokens: the
// optional Section 7 normalization, then tok.
type tokenForm struct {
	tok       tokenize.Tokenizer
	normalize bool
}

// tokens returns the sorted distinct tokens of v; a null has none.
func (f tokenForm) tokens(v table.Value) []string {
	if v.IsNull() {
		return nil
	}
	s := v.Str()
	if f.normalize {
		s = tokenize.Normalize(s)
	}
	return tokenize.SortDistinct(f.tok.Tokens(s))
}

// same reports whether f and g turn every cell into the same tokens.
// Tokenizers of a type that cannot be compared never share.
func (f tokenForm) same(g tokenForm) bool {
	t := reflect.TypeOf(f.tok)
	return f.normalize == g.normalize && t == reflect.TypeOf(g.tok) && t.Comparable() && f.tok == g.tok
}

// tokenColumn is one right-table column under one form: a dictionary of
// its tokens, each row's distinct token count, and each token's postings
// (the rows holding it, ascending). It is never written after build, so
// any number of probes may share it.
type tokenColumn struct {
	ids   map[string]uint32
	sizes []int32
	// Token id's postings are rows[start[id]:start[id+1]].
	start []int32
	rows  []int32
}

// buildTokenColumn tokenises column rj of right once.
func buildTokenColumn(ctx context.Context, right *table.Table, rj int, form tokenForm) (*tokenColumn, error) {
	n := right.Len()
	c := &tokenColumn{ids: make(map[string]uint32), sizes: make([]int32, n)}
	var cells []uint32 // every row's token ids, row after row
	var df []int32     // per token id: how many rows hold it
	for i := 0; i < n; i++ {
		if err := strideErr(ctx, i); err != nil {
			return nil, err
		}
		toks := form.tokens(right.Row(i)[rj])
		c.sizes[i] = int32(len(toks))
		for _, t := range toks {
			id, ok := c.ids[t]
			if !ok {
				id = uint32(len(df))
				// A token is a window of its cell's text; the clone
				// keeps the dictionary from pinning every cell.
				c.ids[strings.Clone(t)] = id
				df = append(df, 0)
			}
			df[id]++
			cells = append(cells, id)
		}
	}
	c.start = make([]int32, len(df)+1)
	for id, d := range df {
		c.start[id+1] = c.start[id] + d
	}
	c.rows = make([]int32, len(cells))
	next := append([]int32(nil), c.start[:len(df)]...)
	at := 0
	for i, size := range c.sizes {
		for _, id := range cells[at : at+int(size)] {
			c.rows[next[id]] = int32(i)
			next[id]++
		}
		at += int(size)
	}
	return c, nil
}

// scratch is one call's probe state: per right row, how many of the
// probing cell's tokens it holds, and the rows with a non-zero count.
type scratch struct {
	counts  []int32
	touched []int32
}

func (c *tokenColumn) newScratch() *scratch { return &scratch{counts: make([]int32, len(c.sizes))} }

// probe counts, for every right row, the tokens it shares with toks (a
// cell's distinct tokens). The rows reached are s.touched, in no
// particular order; the caller reads their counts and then resets.
func (c *tokenColumn) probe(toks []string, s *scratch) {
	for _, t := range toks {
		id, ok := c.ids[t]
		if !ok {
			continue
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
