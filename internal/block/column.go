package block

import (
	"bytes"
	"context"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"emgo/internal/parallel"
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
// that one column serves both: a blocker's and a feature's. Tokenizers of
// a type that cannot be compared never share — not even one with itself.
func (f Form) Same(g Form) bool {
	t := reflect.TypeOf(f.Tok)
	return f.fold() == g.fold() && t != nil && t == reflect.TypeOf(g.Tok) && t.Comparable() && f.Tok == g.Tok
}

// fold is the fold that decides f's tokens. Under the word tokenizer,
// Normalize is Lower: every character it strips separates words already
// (appendWordKeys reads both alike).
func (f Form) fold() Fold {
	if _, ok := f.Tok.(tokenize.Word); ok && f.Fold == FoldNormalize {
		return FoldLower
	}
	return f.Fold
}

// Packs reports whether each of f's tokens fits a key of its own: a
// q-gram tokenizer whose grams pack (tokenize.QGram.Packs).
func (f Form) Packs() bool {
	g, ok := f.Tok.(tokenize.QGram)
	return ok && g.Packs()
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
// readers may share it: the blockers bound to a table and the feature set
// bound beside them read one column per (table, column, token set).
type Column struct {
	form  Form
	ids   map[string]uint64 // nil when tokens are their own keys
	cells []Cell
	// right and rj name the table column whose every row the cells are;
	// right is nil for a column built over some rows only.
	right *table.Table
	rj    int
}

// NewColumn returns an empty column under form. With pack, a form whose
// tokens each fit a key (Form.Packs) gets no dictionary: a feature set's
// 3-gram columns. Without, tokens are numbered densely from 0 in order of
// first appearance, which is what postings index by.
func NewColumn(form Form, pack bool) *Column {
	c := &Column{form: form}
	if !pack || !form.Packs() {
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

// Over reports whether c holds every row of column rj of right.
func (c *Column) Over(right *table.Table, rj int) bool {
	return right != nil && c.right == right && c.rj == rj
}

// AppendKeys appends the keys of v's cell to dst, sorted; null reports a
// null cell, which has none. With add — Build's, and whoever prepares a
// lone cell in a column of its own — a token new to the dictionary joins
// it, and a cell's new tokens are numbered in lexicographic order; never
// on a built column. Without, v is a cell to compare with the column's: a
// token the dictionary lacks matches nothing there, so each gets a key
// past the dictionary's — after every key that can match — and a cell's
// size stays len(keys).
func (c *Column) AppendKeys(dst []uint64, v table.Value, add bool) (_ []uint64, null bool) {
	if v.IsNull() {
		return dst, true
	}
	start, s := len(dst), v.Str()
	if _, ok := c.form.Tok.(tokenize.Word); ok {
		return c.appendWordKeys(dst, s, c.form.Fold != FoldNone, add), false
	}
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
	toks := tokenize.SortDistinct(c.form.Tok.Tokens(s))
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

// appendWordKeys is AppendKeys under the word tokenizer, in one pass over
// s that builds no string the dictionary does not keep: each word is read
// into a buffer, lower-cased with fold, and looked up there. Normalize
// folds as Lower does, since every character it strips separates words
// already. A word the dictionary lacks stays in the buffer until the cell
// is read, so its keys — new ones with add, past the dictionary's without
// — go to the distinct unknown words in lexicographic order, as the
// string path numbers them.
func (c *Column) appendWordKeys(dst []uint64, s string, fold, add bool) []uint64 {
	var (
		textBuf [256]byte  // the word being read, then every unknown one
		spanBuf [32][2]int // each unknown word's window of text
	)
	start, base := len(dst), len(c.ids)
	text, unknown := textBuf[:0], spanBuf[:0]
	for i := 0; i < len(s); {
		from := len(text)
		if text, i = appendWord(text, s, i, fold); from == len(text) {
			break // no word left
		}
		if id, ok := c.ids[string(text[from:])]; ok {
			dst, text = append(dst, id), text[:from]
		} else {
			unknown = append(unknown, [2]int{from, len(text)})
		}
	}
	dst = dst[:start+len(tokenize.SortDistinct(dst[start:]))]
	if len(unknown) == 0 {
		return dst
	}
	word := func(w [2]int) []byte { return text[w[0]:w[1]] }
	slices.SortFunc(unknown, func(a, b [2]int) int { return bytes.Compare(word(a), word(b)) })
	unknown = slices.CompactFunc(unknown, func(a, b [2]int) bool { return bytes.Equal(word(a), word(b)) })
	for k, w := range unknown {
		id := uint64(base + k)
		if add {
			c.ids[string(word(w))] = id
		}
		dst = append(dst, id)
	}
	return dst
}

// wordASCII maps an ASCII byte to itself when it is a letter or a digit,
// and to 0 when it separates words; foldASCII maps a letter to its lower
// case.
var wordASCII, foldASCII = func() (word, fold [utf8.RuneSelf]byte) {
	for b := byte(0); b < utf8.RuneSelf; b++ {
		switch {
		case 'a' <= b && b <= 'z', '0' <= b && b <= '9':
			word[b], fold[b] = b, b
		case 'A' <= b && b <= 'Z':
			word[b], fold[b] = b, b+'a'-'A'
		}
	}
	return word, fold
}()

// appendWord skips the separators of s from i and appends the word after
// them to dst — as tokenize.Word reads words: a maximal run of letters and
// digits, of s or, with fold, of strings.ToLower(s) — and returns where to
// read on, past the separator that ended it. An invalid byte decodes to
// U+FFFD, a separator. With no word left, it appends nothing and returns
// len(s).
func appendWord(dst []byte, s string, i int, fold bool) ([]byte, int) {
	ascii, in := &wordASCII, false
	if fold {
		ascii = &foldASCII
	}
	for i < len(s) {
		if b := s[i]; b < utf8.RuneSelf {
			i++
			if f := ascii[b]; f != 0 {
				dst, in = append(dst, f), true
			} else if in {
				return dst, i
			}
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		i += n
		if fold {
			r = unicode.ToLower(r)
		}
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			dst, in = utf8.AppendRune(dst, r), true
		} else if in {
			return dst, i
		}
	}
	return dst, i
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
	if rows == nil {
		c.right, c.rj = right, rj
	}
	return nil
}

// tokenColumn is a column as the blockers and the blocking debugger read
// it: every row of the right table, numbered densely, plus what is derived
// from its cells — each token's postings (the rows holding it, ascending)
// and each row's token count — and the probe state its readers share. A
// bound blocker's column also holds a bitmap for each frequent token
// (buildBitmaps), which its join sums bit-sliced instead of walking those
// tokens' postings; every token keeps its postings, which the debugger's
// probe walks.
type tokenColumn struct {
	*Column
	// Token id's postings are rows[start[id]:start[id+1]].
	start []int32
	rows  []int32
	// lens[r] is row r's token count, len(Cell(r).Keys); maxLen the most.
	lens   []int32
	maxLen int
	// A dense token's bitmap is bitmaps[dense[id]:][:words]; a sparse
	// token has dense[id] = -1, and the debugger's column no bitmaps at
	// all. Bit p of a bitmap is row perm[p], and pos is perm's inverse:
	// rows are ordered by (token count, row), so the rows of size lb are
	// bits bySize[lb] to bySize[lb+1]−1.
	dense         []int
	bitmaps       []uint64
	words, nDense int
	perm, pos     []int32
	bySize        []int32
	// scratch holds *scratch sized to the column, reset, for probes to
	// take and give back: one a core, as a join holds one a shard.
	scratch parallel.FreeList[scratch]
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
	c.scratch = parallel.NewFreeList(runtime.GOMAXPROCS(0), func() *scratch {
		return &scratch{
			counts: make([]int32, len(c.cells)),
			planes: make([]uint64, c.words*max(4, bits.Len(uint(c.nDense)))),
			dense:  make([]int, 0, c.nDense),
		}
	})
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

// denseRatio is the density rule: a token held by df of the column's rows
// gets a bitmap when df·denseRatio ≥ rows, that is when its ⌈rows/64⌉
// words are at most four a posting. Summing a bitmap costs a word
// operation per 64 rows however many hold the token, walking postings a
// scattered count per holder, so four words a posting is where a bitmap
// still pays. On the 3,830 USDA titles of the deploy_x2 benchmark the rule
// makes 223 of the 236 words dense; the 13 sparse ones hold 58 postings
// between them. At that size (2,672 × 3,830 rows, generator seed 1) the
// bound Figure 10 union went from 26.4 to 12.2 ms (median of 10
// alternating runs, one core of an Intel Xeon), and to 18.7 ms with only
// the 20 commonest words dense: a column mixing the two kinds pays too.
const denseRatio = 256

// buildBitmaps gives c's dense tokens (denseRatio) their bitmaps, and
// orders the bit positions by row size.
func (c *tokenColumn) buildBitmaps() {
	n := len(c.cells)
	c.words = (n + 63) / 64
	c.dense = make([]int, len(c.ids))
	for id := range c.dense {
		c.dense[id] = -1
		if int(c.start[id+1]-c.start[id])*denseRatio >= n {
			c.dense[id] = c.nDense * c.words
			c.nDense++
		}
	}
	// A counting sort by size: stable, so rows of one size ascend.
	c.bySize = make([]int32, c.maxLen+2)
	for _, l := range c.lens {
		c.bySize[l+1]++
	}
	for lb := 1; lb < len(c.bySize); lb++ {
		c.bySize[lb] += c.bySize[lb-1]
	}
	next := slices.Clone(c.bySize)
	c.perm, c.pos = make([]int32, n), make([]int32, n)
	for r, l := range c.lens {
		c.perm[next[l]], c.pos[r] = int32(r), next[l]
		next[l]++
	}
	c.bitmaps = make([]uint64, c.nDense*c.words)
	for id, at := range c.dense {
		if at < 0 {
			continue
		}
		bm := c.bitmaps[at : at+c.words]
		for _, r := range c.rows[c.start[id]:c.start[id+1]] {
			p := c.pos[r]
			bm[p>>6] |= 1 << (p & 63)
		}
	}
}

// scratch is one call's probe state: the probing cell's keys, per right
// row how many of them it holds, and the rows with a non-zero count; for
// a join, the bitmaps of the cell's dense tokens and their sum, bit-sliced
// (planes) — and what the join's probe kept: the right rows some blocker
// admits with their counts, left row by left row; per left row that
// reached any, its size and where its hits end; per blocker how many
// pairs it admits; and the join's admissions.
type scratch struct {
	keys     []uint64
	counts   []int32
	touched  []int32
	dense    []int
	planes   []uint64
	hits     []hit
	lefts    []leftHits
	admitted []int
	adm      admissions
}

// hit is a right row a join kept and the tokens it shares with the left
// row probed.
type hit struct{ row, inter int32 }

// leftHits is a probed left row, its token count and the end of its hits.
type leftHits struct{ row, size, end int32 }

// getScratch lends a call the column's probe state; putScratch takes it
// back. Nothing a request allocates grows with the right table.
func (c *tokenColumn) getScratch() *scratch { return c.scratch.Get() }

func (c *tokenColumn) putScratch(s *scratch) {
	s.reset()
	s.hits, s.lefts = parallel.Emptied(s.hits), parallel.Emptied(s.lefts)
	s.adm.reset()
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

// probeAdmitted is a join's probe, over a column with bitmaps: it counts
// the tokens keys shares with every right row it touches, as probe does,
// but touches only the rows that reach least[lb] shared tokens (lb the
// row's size) through its dense tokens, or that hold one of its sparse
// ones. A sparse token's postings are walked. The dense tokens' bitmaps
// are summed word by word into bit planes — plane k holds bit k of each
// row's count — and a row's dense count is read from them, as is which
// rows of each size reach the least count there.
func (c *tokenColumn) probeAdmitted(keys []uint64, least []int32, s *scratch) {
	known := uint64(len(c.ids))
	s.dense = s.dense[:0]
	for _, id := range keys {
		if id >= known {
			break // the rest are tokens the column lacks
		}
		if at := c.dense[id]; at >= 0 {
			s.dense = append(s.dense, at)
			continue
		}
		for _, r := range c.rows[c.start[id]:c.start[id+1]] {
			if s.counts[r] == 0 {
				s.touched = append(s.touched, r)
			}
			s.counts[r]++
		}
	}
	h := len(s.dense)
	if h == 0 {
		return
	}
	pl := c.sumBitmaps(s.dense, s.planes)
	for _, r := range s.touched {
		s.counts[r] += pl.count(int(c.pos[r]))
	}
	// A row no sparse token reached shares at most min(h, lb) tokens, so
	// a size whose least count is more is passed over; neighbouring sizes
	// with one least count are scanned as one range of bits.
	lo, bound := 0, int32(0)
	for lb := 1; lb <= c.maxLen+1; lb++ {
		at, b := int(c.bySize[lb]), int32(0) // past the longest: b = 0
		if lb <= c.maxLen {
			if at == int(c.bySize[lb+1]) {
				continue // no row has lb tokens
			}
			if b = max(least[lb], 1); int(b) > min(h, lb) {
				b = 0
			}
		}
		if b != bound {
			if bound > 0 {
				c.reachDense(lo, at, bound, pl, s)
			}
			lo, bound = at, b
		}
	}
}

// reachDense touches the rows at bits lo to hi−1 that no sparse token
// reached and whose dense count is at least bound, with that count.
func (c *tokenColumn) reachDense(lo, hi int, bound int32, pl planes, s *scratch) {
	for w, last := lo>>6, (hi-1)>>6; w <= last; w++ {
		m := pl.atLeast(w, bound)
		if w == lo>>6 {
			m &= ^uint64(0) << (lo & 63)
		}
		if w == last {
			m &= ^uint64(0) >> (63 - (hi-1)&63)
		}
		for ; m != 0; m &= m - 1 {
			p := w<<6 + bits.TrailingZeros64(m)
			if r := c.perm[p]; s.counts[r] == 0 {
				s.counts[r] = pl.count(p)
				s.touched = append(s.touched, r)
			}
		}
	}
}

// planes is a bit-sliced count per bit position: bit b of p[w*depth+k] is
// bit k of position 64w+b's count.
type planes struct {
	p     []uint64
	depth int
}

// sumBitmaps adds up the bitmaps at offsets dense into planes. Up to 15
// bitmaps the four planes of a word are carry-save counters held in
// registers; past that a carry chain ripples each word through as many
// planes as the count needs.
func (c *tokenColumn) sumBitmaps(dense []int, into []uint64) planes {
	words, bm := c.words, c.bitmaps
	if len(dense) <= 15 {
		for w := 0; w < words; w++ {
			var a, b, d, e uint64
			for _, at := range dense {
				x := bm[at+w]
				x, a = a&x, a^x
				x, b = b&x, b^x
				x, d = d&x, d^x
				e ^= x
			}
			p := into[4*w : 4*w+4 : 4*w+4]
			p[0], p[1], p[2], p[3] = a, b, d, e
		}
		return planes{p: into[:4*words], depth: 4}
	}
	depth := bits.Len(uint(len(dense)))
	into = into[:depth*words]
	clear(into)
	for _, at := range dense {
		for w, x := range bm[at : at+words] {
			// The count never reaches 1<<depth, so no carry leaves the
			// top plane.
			for p := into[w*depth:]; x != 0; p = p[1:] {
				x, p[0] = p[0]&x, p[0]^x
			}
		}
	}
	return planes{p: into, depth: depth}
}

// count reads position p's count from the planes, with no branch on the
// bits read.
func (pl planes) count(p int) int32 {
	w, b := p>>6, uint(p&63)
	if pl.depth == 4 {
		q := pl.p[4*w : 4*w+4 : 4*w+4]
		return int32(q[0]>>b&1 | (q[1]>>b&1)<<1 | (q[2]>>b&1)<<2 | (q[3]>>b&1)<<3)
	}
	var n uint64
	for k, x := range pl.p[w*pl.depth : (w+1)*pl.depth] {
		n |= (x >> b & 1) << k
	}
	return int32(n)
}

// atLeast is the mask of word w's positions whose count is at least
// bound: a bit-sliced compare from the top plane down, with no branch on
// the planes.
func (pl planes) atLeast(w int, bound int32) uint64 {
	gt, eq := uint64(0), ^uint64(0)
	if pl.depth == 4 {
		q := pl.p[4*w : 4*w+4 : 4*w+4]
		gt, eq = compareStep(gt, eq, q[3], bound, 3)
		gt, eq = compareStep(gt, eq, q[2], bound, 2)
		gt, eq = compareStep(gt, eq, q[1], bound, 1)
		gt, eq = compareStep(gt, eq, q[0], bound, 0)
		return gt | eq
	}
	q := pl.p[w*pl.depth : (w+1)*pl.depth]
	for k := pl.depth - 1; k >= 0; k-- {
		gt, eq = compareStep(gt, eq, q[k], bound, k)
	}
	return gt | eq
}

// compareStep takes a bit-sliced compare with bound one plane down, to
// plane x, bit k of every count: gt marks the counts already above bound,
// eq those equal to it so far.
func compareStep(gt, eq, x uint64, bound int32, k int) (uint64, uint64) {
	one := -(uint64(bound) >> k & 1) // all ones where bound's bit k is
	return gt | eq&x&^one, eq &^ (x ^ one)
}

// reset clears the counts the last probe left.
func (s *scratch) reset() {
	for _, r := range s.touched {
		s.counts[r] = 0
	}
	s.touched = s.touched[:0]
}
