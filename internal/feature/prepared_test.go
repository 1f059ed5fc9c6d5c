package feature

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"emgo/internal/block"
	"emgo/internal/parallel"
	"emgo/internal/simfunc"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// naiveSetSims are the set similarities as they were computed before
// cells were prepared: tokenise both texts for this one pair and hand
// the raw token slices to simfunc's map-based definitions.
var naiveSetSims = func() map[string]func(a, b string) float64 {
	word, qg3 := tokenize.Word{}, tokenize.QGram{Q: 3}
	over := func(tok tokenize.Tokenizer, lower bool, fn func(a, b []string) float64) func(a, b string) float64 {
		return func(a, b string) float64 {
			if lower {
				a, b = tokenize.Lower(a), tokenize.Lower(b)
			}
			return fn(tok.Tokens(a), tok.Tokens(b))
		}
	}
	return map[string]func(a, b string) float64{
		"jaccard_qgram3":       over(qg3, false, simfunc.Jaccard),
		"jaccard_word":         over(word, false, simfunc.Jaccard),
		"cosine_word":          over(word, false, simfunc.Cosine),
		"dice_word":            over(word, false, simfunc.Dice),
		"overlap_coeff_word":   over(word, false, simfunc.OverlapCoefficient),
		"jaccard_word_lower":   over(word, true, simfunc.Jaccard),
		"jaccard_qgram3_lower": over(qg3, true, simfunc.Jaccard),
	}
}()

// hardCells are the texts a prepared cell must get right: null (added by
// the table builder), empty, shorter than q, repeated tokens, mixed
// case, punctuation-only, non-ASCII, and invalid UTF-8.
var hardCells = []string{
	"", "a", "ab", "abc", "corn corn CORN corn", "Corn Fungicide Guidelines",
	"corn fungicide guidelines", "  ;;; --- ", "Übergröße übergröße", "naïve café 東京 東京",
	"\xff\xfe corn", "x", "2008-34103-19449", "WIS01560 WIS01560",
}

// registryTables builds one table pair with a column per value kind, so
// every registry key has cells of the kind it reads: S string (hardCells
// plus a null), N float, D date.
func registryTables(t testing.TB) (*table.Table, *table.Table) {
	t.Helper()
	schema := table.MustSchema(
		table.Field{Name: "S", Kind: table.String},
		table.Field{Name: "N", Kind: table.Float},
		table.Field{Name: "D", Kind: table.Date},
	)
	build := func(name string, shift int) *table.Table {
		tb := table.New(name, schema)
		for i := range hardCells {
			s := table.S(hardCells[(i+shift)%len(hardCells)])
			n := table.F(float64((i * 7) % 5))
			d := table.D(time.Date(2000+(i+shift)%4, 1, 1, 0, 0, 0, 0, time.UTC))
			if i%6 == 5 {
				n, d = table.Null(table.Float), table.Null(table.Date)
			}
			tb.MustAppend(table.Row{s, n, d})
		}
		tb.MustAppend(table.Row{table.Null(table.String), table.F(1), table.Null(table.Date)})
		return tb
	}
	return build("L", 0), build("R", 3)
}

func registryKeys() []string {
	keys := make([]string, 0, len(computeRegistry))
	for k := range computeRegistry {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// columnFor picks the fixture column whose kind a registry key reads.
func columnFor(key string) string {
	switch key {
	case "exact_num", "abs_diff", "rel_diff":
		return "N"
	case "year_diff", "year_exact":
		return "D"
	}
	return "S"
}

func allPairs(l, r *table.Table) []block.Pair {
	var pairs []block.Pair
	for i := 0; i < l.Len(); i++ {
		for j := 0; j < r.Len(); j++ {
			pairs = append(pairs, block.Pair{A: i, B: j})
		}
	}
	return pairs
}

// TestVectorizeMatchesCompute: for every key of the registry, over every
// pair of the hard cells, the vector VectorizeCtx builds (set features
// from prepared cells, grouped by form) is bit-for-bit what
// Feature.Compute returns for that pair, and the set features are
// bit-for-bit the naive tokenise-per-pair definition.
func TestVectorizeMatchesCompute(t *testing.T) {
	l, r := registryTables(t)
	set := &Set{}
	for _, key := range registryKeys() {
		f, err := New(columnFor(key), columnFor(key), key)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	pl, err := set.planFor(l, r)
	if err != nil {
		t.Fatal(err)
	}
	prepared := 0
	for _, g := range pl.groups {
		prepared += len(g.feats)
	}
	if prepared != len(naiveSetSims) || prepared+len(pl.direct) != set.Len() {
		t.Fatalf("plan prepares %d features and computes %d directly; want %d prepared of %d", prepared, len(pl.direct), len(naiveSetSims), set.Len())
	}
	if len(pl.groups) != 4 {
		t.Fatalf("plan has %d cell groups, want 4 (word, qgram3, and their lower forms)", len(pl.groups))
	}

	pairs := allPairs(l, r)
	x, err := set.VectorizeCtx(context.Background(), l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		for k, f := range set.Features {
			lj, _ := l.Col(f.LeftCol)
			rj, _ := r.Col(f.RightCol)
			a, b := l.Row(p.A)[lj], r.Row(p.B)[rj]
			if want := f.Compute(a, b); math.Float64bits(x[i][k]) != math.Float64bits(want) {
				t.Fatalf("%s on pair %v (%q, %q): vectorized %v, Compute %v", f.Name, p, a.Str(), b.Str(), x[i][k], want)
			}
			naive, isSet := naiveSetSims[f.Func]
			if !isSet {
				continue
			}
			want := math.NaN()
			if !a.IsNull() && !b.IsNull() {
				want = naive(a.Str(), b.Str())
			}
			if math.Float64bits(x[i][k]) != math.Float64bits(want) {
				t.Fatalf("%s on pair %v (%q, %q): vectorized %v, naive %v", f.Name, p, a.Str(), b.Str(), x[i][k], want)
			}
		}
	}

	// The same set restricted to what a matcher reads: its vectors are as
	// wide as the read count, column c bit-for-bit the full set's value of
	// the c-th read feature (Feature.Compute's, by the above), bound or not
	// — and the cells it binds are the read groups' only.
	index := map[string]int{}
	for k, f := range set.Features {
		index[f.Func] = k
	}
	for _, keys := range [][]string{
		{"jaccard_word_lower", "year_diff"}, // one group, one direct: the deployed tree's shape
		{"cosine_word", "dice_word", "jaccard_qgram3_lower"},
		{"exact_num"},
		{},
		registryKeys(),
	} {
		read := make([]bool, set.Len())
		for _, key := range keys {
			read[index[key]] = true
		}
		var readIdx []int
		for k, r := range read {
			if r {
				readIdx = append(readIdx, k)
			}
		}
		restricted := set.Restrict(read)
		if got := restricted.Len(); got != len(readIdx) {
			t.Fatalf("reading %v: restricted set has %d features, want %d", keys, got, len(readIdx))
		}
		boundSet := mustBind(t, restricted, r)
		for _, bound := range []bool{false, true} {
			vs := restricted
			if bound {
				vs = boundSet
			}
			got, err := vs.VectorizeCtx(context.Background(), l, r, pairs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pairs {
				if len(got[i]) != len(readIdx) {
					t.Fatalf("reading %v (bound=%v): vector of width %d, want %d", keys, bound, len(got[i]), len(readIdx))
				}
				for c, k := range readIdx {
					if math.Float64bits(got[i][c]) != math.Float64bits(x[i][k]) {
						t.Fatalf("reading %v (bound=%v): %s on pair %v is %v, want %v", keys, bound, set.Features[k].Name, pairs[i], got[i][c], x[i][k])
					}
				}
			}
		}
		forms := 0
		for _, grp := range pl.groups {
			readGroup := false
			for _, k := range grp.feats {
				if read[k] {
					readGroup = true
				}
			}
			if readGroup {
				forms++
			}
			if col := boundSet.cells.column(grp.rj, grp.form); (col != nil) != readGroup {
				t.Fatalf("reading %v: group %v bound=%v, read=%v", keys, grp.form, col != nil, readGroup)
			}
		}
		if cols := boundSet.cells.cols; len(cols) != forms {
			t.Fatalf("reading %v: %d columns bound, want %d", keys, len(cols), forms)
		}
	}
	if set.cells != nil || set.Len() != len(registryKeys()) {
		t.Fatal("Restrict or Bind changed the set it was called on")
	}
}

// TestVectorizeRowsDoNotAlias: rows share one backing array, so an
// append to one must not write into the next.
func TestVectorizeRowsDoNotAlias(t *testing.T) {
	l, r := registryTables(t)
	f, _ := New("S", "S", "jaccard_word")
	set := &Set{Features: []Feature{f}}
	x, err := set.VectorizeCtx(context.Background(), l, r, []block.Pair{{A: 0, B: 0}, {A: 4, B: 1}})
	if err != nil {
		t.Fatal(err)
	}
	next := x[1][0]
	_ = append(x[0], 42)
	if x[1][0] != next {
		t.Fatalf("append to row 0 overwrote row 1: %v", x[1][0])
	}
}

// FuzzSetSimilarity: for two arbitrary strings, every set similarity
// computed from prepared cells equals the naive per-pair definition.
func FuzzSetSimilarity(f *testing.F) {
	for i, s := range hardCells {
		f.Add(s, hardCells[(i+5)%len(hardCells)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		for key, naive := range naiveSetSims {
			got := computeRegistry[key].compute(table.S(a), table.S(b))
			if want := naive(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s(%q, %q) = %v from prepared cells, %v naive", key, a, b, got, want)
			}
		}
	})
}

// unicodeCells are what a packed key must keep apart or together beyond
// hardCells: runes past U+FFFF, invalid bytes next to the U+FFFD they
// decode to, runes whose lower case is another length in bytes, and cells
// of one and two runes next to grams that start the same way.
var unicodeCells = []string{
	"𝒜𝒷𝒸 𝒜𝒷𝒸𝒹", "😀😀😀😀", "😀", "\xff\xfe\xfd", "\ufffd\ufffd\ufffd", "\xf0\x9fab", "ab\xf0",
	"İstanbul ISTANBUL", "ǅ ǆ Ǆ", "ẞ ß", "\U0010ffff\U0010ffff\U0010ffff", "\x00\x00\x00", "\x00\x00", "aB", "Ab", "abC",
}

// gramCells is every text the packed-key oracles compare pairwise.
var gramCells = append(append([]string{}, hardCells...), unicodeCells...)

// gramCounts returns |A∩B|, |A| and |B| of a and b twice: from the packed
// cells of form, and from the token strings its tokenizer returns.
func gramCounts(form block.Form, a, b string) (packed, tokens [3]int) {
	col := block.NewColumn(form, true)
	kb, _ := col.AppendKeys(nil, table.S(b), true)
	ka, _ := col.AppendKeys(nil, table.S(a), false)
	packed = [3]int{simfunc.SortedIntersectionSize(ka, kb), len(ka), len(kb)}
	if form.Fold == block.FoldLower {
		a, b = tokenize.Lower(a), tokenize.Lower(b)
	}
	ta, tb := tokenize.SortedSet(form.Tok.Tokens(a)), tokenize.SortedSet(form.Tok.Tokens(b))
	return packed, [3]int{simfunc.SortedIntersectionSize(ta, tb), len(ta), len(tb)}
}

// packedForms are the forms whose tokens are their own keys: the
// registry's 3-grams, and the shorter grams that pack the same way.
var packedForms = func() (forms []block.Form) {
	for q := 1; q <= 3; q++ {
		forms = append(forms, block.Form{Tok: tokenize.QGram{Q: q}}, block.Form{Tok: tokenize.QGram{Q: q}, Fold: block.FoldLower})
	}
	return forms
}()

// TestPackedKeysMatchTokenSets: over every pair of the hard cells, raw and
// lower-cased, packed q-gram cells have the sizes and the intersection of
// the token sets they stand for.
func TestPackedKeysMatchTokenSets(t *testing.T) {
	for _, form := range packedForms {
		if !block.NewColumn(form, true).Packed() {
			t.Fatalf("%s has a dictionary: its grams should be their own keys", form.Tok.Name())
		}
		for _, a := range gramCells {
			for _, b := range gramCells {
				if packed, tokens := gramCounts(form, a, b); packed != tokens {
					t.Fatalf("%s fold=%v (%q, %q): packed cells count %v, token sets %v", form.Tok.Name(), form.Fold, a, b, packed, tokens)
				}
			}
		}
	}
}

// FuzzPackedKeys is TestPackedKeysMatchTokenSets over arbitrary strings.
func FuzzPackedKeys(f *testing.F) {
	for i, s := range gramCells {
		f.Add(s, gramCells[(i+7)%len(gramCells)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, form := range packedForms {
			if packed, tokens := gramCounts(form, a, b); packed != tokens {
				t.Fatalf("%s fold=%v (%q, %q): packed cells count %v, token sets %v", form.Tok.Name(), form.Fold, a, b, packed, tokens)
			}
		}
	})
}

// fieldsTokenizer is a tokenizer of a type Go cannot compare, so no column
// is ever shared under it (block.Form.Same).
type fieldsTokenizer []string

func (fieldsTokenizer) Tokens(s string) []string { return strings.Fields(s) }
func (fieldsTokenizer) Name() string             { return "fields" }

// TestDictionaryFormsMatchCompute: grams that do not fit a key — four
// runes, padded — and a tokenizer of a type this package has never seen
// go through a column's dictionary, one of a type that cannot be compared
// through a column a pair, and a set of them, unbound and bound, still
// builds what Feature.Compute and the naive definition return.
func TestDictionaryFormsMatchCompute(t *testing.T) {
	toks := map[string]tokenize.Tokenizer{
		"test_qgram4":  tokenize.QGram{Q: 4},
		"test_qgram3p": tokenize.QGram{Q: 3, Pad: true},
		"test_custom":  &formCounter{},
		"test_fields":  fieldsTokenizer{},
	}
	l, r := registryTables(t)
	set := &Set{}
	for key, tok := range toks {
		form := block.Form{Tok: tok}
		if key == "test_qgram4" {
			form.Fold = block.FoldLower
		}
		if block.NewColumn(form, true).Packed() {
			t.Fatalf("%s has no dictionary", tok.Name())
		}
		computeRegistry[key] = setSim(form, simfunc.JaccardSizes)
		defer delete(computeRegistry, key)
		f, err := New("S", "S", key)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	pairs := allPairs(l, r)
	unbound, err := set.VectorizeCtx(context.Background(), l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := mustBind(t, set, r).VectorizeCtx(context.Background(), l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	sameVectors(t, "bound", bound, unbound)
	sj, _ := l.Col("S")
	for i, p := range pairs {
		a, b := l.Row(p.A)[sj], r.Row(p.B)[sj]
		for k, f := range set.Features {
			want := math.NaN()
			if !a.IsNull() && !b.IsNull() {
				sa, sb := a.Str(), b.Str()
				if f.Func == "test_qgram4" {
					sa, sb = tokenize.Lower(sa), tokenize.Lower(sb)
				}
				want = simfunc.Jaccard(toks[f.Func].Tokens(sa), toks[f.Func].Tokens(sb))
			}
			if got := f.Compute(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s Compute(%q, %q) = %v, naive %v", f.Name, a.Str(), b.Str(), got, want)
			}
			if math.Float64bits(unbound[i][k]) != math.Float64bits(want) {
				t.Fatalf("%s on pair %v (%q, %q): vectorized %v, naive %v", f.Name, p, a.Str(), b.Str(), unbound[i][k], want)
			}
		}
	}
}

// manyPairs cycles the fixture's Cartesian product up to n pairs — more
// than one dispatch chunk per worker, so chunking is really in play.
func manyPairs(l, r *table.Table, n int) []block.Pair {
	base := allPairs(l, r)
	pairs := make([]block.Pair, n)
	for i := range pairs {
		pairs[i] = base[i%len(base)]
	}
	return pairs
}

// TestVectorizeNamesPoisonPairPerChunk: under chunked dispatch a
// closure feature is computed once per pair, and a pair whose cell makes
// it panic, anywhere in a chunk, is the index the error names.
func TestVectorizeNamesPoisonPairPerChunk(t *testing.T) {
	l, r := registryTables(t)
	set, err := Generate(l, r, map[string]string{"S": "S"}, []string{"S"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	pairs := manyPairs(l, r, n)
	var computed atomic.Int64
	set.Features = append(set.Features, Feature{
		Name: "poisonable", LeftCol: "S", RightCol: "S",
		Compute: func(a, b table.Value) float64 {
			computed.Add(1)
			if a.Str() == "poison" {
				panic("poisoned cell")
			}
			return 0
		},
	})
	if _, err := set.VectorizeCtx(context.Background(), l, r, pairs); err != nil {
		t.Fatal(err)
	}
	if got := computed.Load(); got != n {
		t.Fatalf("the closure ran %d times for %d pairs", got, n)
	}

	poisonRow := l.Len()
	l.MustAppend(table.Row{table.S("poison"), table.F(0), table.Null(table.Date)})
	for _, poison := range []int{0, 1, 255, 256, 257, 2600, n - 1} {
		poisoned := slices.Clone(pairs)
		poisoned[poison] = block.Pair{A: poisonRow, B: 0}
		_, err := set.VectorizeCtx(context.Background(), l, r, poisoned)
		if idx, ok := parallel.FailingIndex(err); !ok || idx != poison {
			t.Fatalf("poison pair %d: FailingIndex = %d, %v (err %v)", poison, idx, ok, err)
		}
	}
}

// TestVectorizeCancelStopsWithinOneChunk: once the context is cancelled
// each worker finishes at most the chunk it holds.
func TestVectorizeCancelStopsWithinOneChunk(t *testing.T) {
	l, r := registryTables(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var after atomic.Int64
	set := &Set{Features: []Feature{{
		Name: "cancels", LeftCol: "S", RightCol: "S",
		Compute: func(a, b table.Value) float64 {
			if ctx.Err() != nil {
				after.Add(1)
			}
			cancel()
			return 0
		},
	}}}
	const n = 200000
	_, err := set.VectorizeCtx(ctx, l, r, manyPairs(l, r, n))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker may finish the chunk it holds, and one more chunk may
	// have been on offer at the moment the cancellation landed.
	const maxChunk = 256 // parallel's dispatch bound
	if limit := int64(maxChunk * (runtime.GOMAXPROCS(0) + 1)); after.Load() > limit {
		t.Fatalf("%d pairs computed after cancellation, want at most %d of %d", after.Load(), limit, n)
	}
}

// formCounter is a word tokenizer counting the cells it is handed; used by
// pointer so a block.Form holding it compares equal to itself.
type formCounter struct{ cells atomic.Int64 }

func (c *formCounter) Tokens(s string) []string {
	c.cells.Add(1)
	return tokenize.Word{}.Tokens(s)
}

func (c *formCounter) Name() string { return "form_counter" }

// sameVectors fails unless x and y agree bit for bit.
func sameVectors(t *testing.T, what string, x, y [][]float64) {
	t.Helper()
	if len(x) != len(y) {
		t.Fatalf("%s: %d vectors, want %d", what, len(x), len(y))
	}
	for i := range x {
		for k := range x[i] {
			if math.Float64bits(x[i][k]) != math.Float64bits(y[i][k]) {
				t.Fatalf("%s: pair %d feature %d is %v, want %v", what, i, k, x[i][k], y[i][k])
			}
		}
	}
}

// TestBoundVectorizeMatchesUnbound: a set bound to its right table builds
// bit-for-bit the vectors an unbound set builds, tokenising no right cell
// to do it. Bind leaves the set it came from unbound, takes no new
// feature, and answers about its table only: asked about another, it
// returns an error naming both.
func TestBoundVectorizeMatchesUnbound(t *testing.T) {
	counter := &formCounter{}
	computeRegistry["test_counted"] = setSim(block.Form{Tok: counter}, simfunc.JaccardSizes)
	defer delete(computeRegistry, "test_counted")

	l, r := registryTables(t)
	newSet := func(keys ...string) *Set {
		set := &Set{}
		for _, key := range keys {
			f, err := New(columnFor(key), columnFor(key), key)
			if err != nil {
				t.Fatal(err)
			}
			if err := set.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		return set
	}
	pairs := allPairs(l, r)
	want, err := newSet(registryKeys()...).VectorizeCtx(context.Background(), l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}

	set := newSet(registryKeys()...)
	counter.cells.Store(0)
	bound := mustBind(t, set, r)
	if n := counter.cells.Load(); n != int64(r.Len())-1 { // one right cell is null
		t.Fatalf("Bind tokenised %d right cells, want %d", n, r.Len()-1)
	}
	for n := 0; n < 2; n++ {
		counter.cells.Store(0)
		got, err := bound.VectorizeCtx(context.Background(), l, r, pairs)
		if err != nil {
			t.Fatal(err)
		}
		sameVectors(t, "bound", got, want)
		if n := counter.cells.Load(); n != int64(l.Len())-1 {
			t.Fatalf("bound Vectorize tokenised %d cells, want the %d left cells only", n, l.Len()-1)
		}
	}
	counter.cells.Store(0)
	if _, err := set.VectorizeCtx(context.Background(), l, r, pairs); err != nil {
		t.Fatal(err)
	}
	if n := counter.cells.Load(); n <= int64(l.Len())-1 {
		t.Fatalf("the set Bind came from tokenised %d cells, want its right cells too: it stays unbound", n)
	}

	extra, _ := New("S", "S", "dice_word")
	if err := bound.Add(extra); err == nil {
		t.Fatal("a bound set took a new feature")
	}

	other := table.New("other", r.Schema())
	for i := 0; i < r.Len(); i++ {
		other.MustAppend(r.Row(i))
	}
	_, err = bound.VectorizeCtx(context.Background(), l, other, allPairs(l, other))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", r.Name())) || !strings.Contains(err.Error(), `"other"`) {
		t.Fatalf("bound to %s, asked about other: %v, want an error naming both", r.Name(), err)
	}
	got, err := mustBind(t, set, other).VectorizeCtx(context.Background(), l, other, allPairs(l, other))
	if err != nil {
		t.Fatal(err)
	}
	sameVectors(t, "bound to the other table", got, want)
}

// TestBindReadsBuiltColumns: a set bound beside bound blockers reads each
// of their columns it would build alike — the same right column, a Same
// form (a word column under normalize serves word + lower), the same
// packing — and builds the rest: the unfolded word column, and a packed
// 3-gram column even beside a blocker's numbered one. Bound to another
// table it reads none of them. Its vectors are the unbound set's.
func TestBindReadsBuiltColumns(t *testing.T) {
	ctx := context.Background()
	l, r := registryTables(t)
	blockers, err := block.Bind(ctx, r,
		block.Overlap{LeftCol: "S", RightCol: "S", Tokenizer: tokenize.Word{}, Threshold: 1, Normalize: true},
		block.Overlap{LeftCol: "S", RightCol: "S", Tokenizer: tokenize.QGram{Q: 3}, Threshold: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	built := block.Columns(blockers)
	if len(built) != 2 {
		t.Fatalf("%d columns of two blockers over different forms", len(built))
	}
	set := &Set{}
	for _, key := range []string{"jaccard_word_lower", "jaccard_qgram3", "jaccard_word", "cosine_word"} {
		f, err := New("S", "S", key)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	pairs := allPairs(l, r)
	want, err := set.VectorizeCtx(context.Background(), l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := set.Bind(ctx, r, built...)
	if err != nil {
		t.Fatal(err)
	}
	rj, _ := r.Col("S")
	lower := bound.cells.column(rj, block.Form{Tok: tokenize.Word{}, Fold: block.FoldLower})
	word := bound.cells.column(rj, block.Form{Tok: tokenize.Word{}})
	grams := bound.cells.column(rj, block.Form{Tok: tokenize.QGram{Q: 3}})
	switch {
	case len(bound.cells.cols) != 3:
		t.Fatalf("bound set holds %d columns, want 3", len(bound.cells.cols))
	case lower != built[0]:
		t.Fatal("word + lower did not read the blockers' word + normalize column")
	case word == built[0] || word == built[1]:
		t.Fatal("the unfolded word column is a blocker's")
	case grams == built[1] || !grams.Packed():
		t.Fatalf("the 3-gram column is the blocker's numbered one, or not packed (packed=%v)", grams.Packed())
	}
	got, err := bound.VectorizeCtx(context.Background(), l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	sameVectors(t, "bound beside blockers", got, want)

	other := table.New("other", r.Schema())
	for i := 0; i < r.Len(); i++ {
		other.MustAppend(r.Row(i))
	}
	elsewhere, err := set.Bind(ctx, other, built...)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range elsewhere.cells.cols {
		if slices.Contains(built, c) {
			t.Fatal("a set bound to another table read a blocker's column")
		}
	}
}

// TestConcurrentVectorizeSharesBoundCells: goroutines vectorizing over one
// bound set read the same prepared right cells (run under -race). Half
// of them ask with the left columns in another order, so the plan the
// set keeps for the last left schema keeps changing under them.
func TestConcurrentVectorizeSharesBoundCells(t *testing.T) {
	l, r := registryTables(t)
	set, err := Generate(l, r, map[string]string{"S": "S"}, []string{"S"})
	if err != nil {
		t.Fatal(err)
	}
	pairs := allPairs(l, r)
	want, err := set.VectorizeCtx(context.Background(), l, r, pairs)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := l.Project("L", "D", "N", "S")
	if err != nil {
		t.Fatal(err)
	}
	bound := mustBind(t, set, r)
	done := make(chan [][]float64)
	for g := 0; g < 8; g++ {
		left := l
		if g%2 == 1 {
			left = moved
		}
		go func() {
			x, err := bound.VectorizeCtx(context.Background(), left, r, pairs)
			if err != nil {
				t.Error(err)
			}
			done <- x
		}()
	}
	for g := 0; g < 8; g++ {
		if x := <-done; x != nil {
			sameVectors(t, "concurrent", x, want)
		}
	}
}

// mustBind returns set bound to right, failing the test on an error.
func mustBind(t *testing.T, set *Set, right *table.Table) *Set {
	t.Helper()
	bound, err := set.Bind(context.Background(), right)
	if err != nil {
		t.Fatal(err)
	}
	return bound
}
