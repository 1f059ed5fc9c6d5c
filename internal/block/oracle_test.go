package block

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"emgo/internal/simfunc"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// The token blockers and the debugger answer from one probe over a prepared
// column. These tests hold them to nested-loop references written straight
// from the definitions — simfunc over the raw tokens of every pair — and
// ask for the same pairs in the same order, whichever way the blocker came
// by its column: unbound, bound, bound before the table grew, bound to
// another table.

// oracleCells are the cells the random titles are mixed with: a null, an
// empty and an all-punctuation cell (no tokens), unicode, case and
// punctuation noise, cells shorter than any K, and a left/right pair of
// ten-token cells sharing exactly seven (overlap coefficient 7/10 = 0.7).
var oracleCells = []table.Value{
	table.Null(table.String),
	table.S(""),
	table.S("!!! ((( ###"),
	table.S("Müller ÉCOLE 日本語 corn"),
	table.S("müller école 日本語 CORN"),
	table.S(`"Corn"!! (fungicide) #guidelines`),
	table.S("corn"),
	table.S("corn soy"),
	table.S("a1 a2 a3 a4 a5 a6 a7 l8 l9 l10"),
	table.S("a1 a2 a3 a4 a5 a6 a7 r8 r9 r10"),
}

// oracleTables builds two Title/Name tables of random short titles over a
// small vocabulary (so pairs collide at every overlap from 0 up) with the
// oracleCells spread through them.
func oracleTables(rng *rand.Rand, nl, nr int) (*table.Table, *table.Table) {
	words := []string{"corn", "Corn", "soy", "dairy", "rust", "blight", "soil", "weed", "farm", "north", "central", "Müller"}
	seps := []string{" ", " ", "  ", "-", " (", ")! "}
	title := func() table.Value {
		if rng.Intn(6) == 0 {
			return oracleCells[rng.Intn(len(oracleCells))]
		}
		var sb strings.Builder
		for n := 1 + rng.Intn(7); n > 0; n-- {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteString(seps[rng.Intn(len(seps))])
		}
		return table.S(sb.String())
	}
	fill := func(name string, n int) *table.Table {
		t := table.New(name, table.MustSchema(
			table.Field{Name: "Title", Kind: table.String},
			table.Field{Name: "Name", Kind: table.String}))
		for i := 0; i < n; i++ {
			t.MustAppend(table.Row{title(), title()})
		}
		return t
	}
	return fill("L", nl), fill("R", nr)
}

// zipfTables builds two Title tables whose words are drawn from a Zipf
// distribution over a vocabulary of 2,000, so the right table's column
// holds both kinds of token: the head words are dense (denseRatio), the
// tail sparse, and a left cell mixes them. Right row i has exactly
// 1 + i%24 distinct words, so every size from 1 to the longest has rows,
// and one row in 50 is null or empty. The first eight left titles are 13
// to 20 of the dense words of one right title, so counts reach either
// side of 16 — the most four bit planes cannot hold — with as many dense
// tokens in the cell; the rest draw 1 to 24 words each. The fixture
// checks all of this through a bound column before it returns.
func zipfTables(t *testing.T, seed int64, nl, nr int) (*table.Table, *table.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 10, 1999)
	title := func(n int) string {
		seen := map[uint64]bool{}
		var sb strings.Builder
		for len(seen) < n {
			w := zipf.Uint64()
			if !seen[w] {
				seen[w] = true
				fmt.Fprintf(&sb, "w%d, ", w)
			}
		}
		return sb.String()
	}
	schema := table.MustSchema(table.Field{Name: "Title", Kind: table.String})
	l, r := table.New("L", schema), table.New("R", schema)
	for i := 0; i < nr; i++ {
		switch {
		case i%100 == 49:
			r.MustAppend(table.Row{table.Null(table.String)})
		case i%100 == 99:
			r.MustAppend(table.Row{table.S("")})
		default:
			r.MustAppend(table.Row{table.S(title(1 + i%24))})
		}
	}
	b := mustBind(t, r, Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 1, Normalize: true})[0]
	col := b.(*boundTokens).col
	if col.nDense == 0 || col.nDense == len(col.dense) {
		t.Fatalf("fixture: %d of %d tokens dense, want both kinds", col.nDense, len(col.dense))
	}
	for lb := 1; lb <= col.maxLen; lb++ {
		if col.bySize[lb] == col.bySize[lb+1] {
			t.Fatalf("fixture: no right cell has %d tokens", lb)
		}
	}
	// denseWords is the dense words of v's cell.
	denseWords := func(v table.Value) []string {
		var out []string
		for _, w := range rawTokens(v, tokenize.Word{}, true) {
			if id, ok := col.ids[w]; ok && col.dense[id] >= 0 {
				out = append(out, w)
			}
		}
		return out
	}
	var most []string
	for i := 0; i < r.Len(); i++ {
		if ws := denseWords(r.Row(i)[0]); len(ws) > len(most) {
			most = ws
		}
	}
	if len(most) < 20 {
		t.Fatalf("fixture: no right cell has more than %d dense tokens, want 20", len(most))
	}
	for n := 13; n <= 20; n++ {
		l.MustAppend(table.Row{table.S(strings.Join(most[:n], " "))})
	}
	for l.Len() < nl {
		l.MustAppend(table.Row{table.S(title(1 + rng.Intn(24)))})
	}
	return l, r
}

// rawTokens is a cell's token sequence as the definitions see it.
func rawTokens(v table.Value, tok tokenize.Tokenizer, normalize bool) []string {
	if v.IsNull() {
		return nil
	}
	s := v.Str()
	if normalize {
		s = tokenize.Normalize(s)
	}
	return tok.Tokens(s)
}

// naivePairs is the reference join: every pair of cells with tokens on
// both sides that keep accepts, in row-major order.
func naivePairs(l, r *table.Table, col string, tok tokenize.Tokenizer, normalize bool, keep func(a, b []string) bool) []Pair {
	right := make([][]string, r.Len())
	for j := range right {
		right[j] = rawTokens(r.Get(j, col), tok, normalize)
	}
	var out []Pair
	for i := 0; i < l.Len(); i++ {
		a := rawTokens(l.Get(i, col), tok, normalize)
		for j := 0; j < r.Len() && len(a) > 0; j++ {
			if b := right[j]; len(b) > 0 && keep(a, b) {
				out = append(out, Pair{A: i, B: j})
			}
		}
	}
	return out
}

// checkAgainstNaive runs b over (l, r) every way a blocker can come by its
// column and compares each run's pairs, in order, with naive(l, right).
func checkAgainstNaive(t *testing.T, b Blocker, l, r *table.Table, naive func(l, r *table.Table) []Pair) {
	t.Helper()
	same := func(how string, got *CandidateSet, err error, right *table.Table) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s: %v", b.Name(), how, err)
		}
		if want := naive(l, right); !slices.Equal(got.Pairs(), want) {
			t.Fatalf("%s %s:\n got %v\nwant %v", b.Name(), how, got.Pairs(), want)
		}
	}
	got, err := b.Block(context.Background(), l, r)
	same("unbound", got, err, r)

	bound := mustBind(t, r, b)[0]
	for n := 0; n < 2; n++ {
		got, err = bound.Block(context.Background(), l, r)
		same("bound", got, err, r)
	}

	// Bound to one table, asked about another: an error naming both.
	other := table.New("other", r.Schema())
	for i := 0; i < r.Len(); i++ {
		other.MustAppend(r.Row(i))
	}
	if _, err = bound.Block(context.Background(), l, other); !namesBoth(err, r, other) {
		t.Fatalf("%s bound to %s, asked about %s: %v, want an error naming both", b.Name(), r.Name(), other.Name(), err)
	}
	got, err = mustBind(t, other, b)[0].Block(context.Background(), l, other)
	same("bound to the other table", got, err, other)
}

// namesBoth reports whether err names the tables a and b.
func namesBoth(err error, a, b *table.Table) bool {
	return err != nil && strings.Contains(err.Error(), fmt.Sprintf("%q", a.Name())) && strings.Contains(err.Error(), fmt.Sprintf("%q", b.Name()))
}

func TestOverlapEquivalentToNaive(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, r := oracleTables(rng, 30, 40)
		for _, tok := range []tokenize.Tokenizer{tokenize.Word{}, tokenize.QGram{Q: 3}} {
			for _, k := range []int{1, 2, 3, 7} {
				for _, normalize := range []bool{true, false} {
					b := Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tok, Threshold: k, Normalize: normalize}
					checkAgainstNaive(t, b, l, r, func(l, r *table.Table) []Pair {
						return naivePairs(l, r, "Title", tok, normalize, func(a, b []string) bool {
							return simfunc.OverlapSize(a, b) >= k
						})
					})
				}
			}
		}
	}
	// A column mixing dense tokens and sparse ones.
	l, r := zipfTables(t, 1, 24, 1030)
	for _, k := range []int{1, 2, 3, 7} {
		b := Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: k, Normalize: true}
		checkAgainstNaive(t, b, l, r, func(l, r *table.Table) []Pair {
			return naivePairs(l, r, "Title", tokenize.Word{}, true, func(a, b []string) bool {
				return simfunc.OverlapSize(a, b) >= k
			})
		})
	}
}

func TestOverlapCoefficientEquivalentToNaive(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, r := oracleTables(rng, 30, 40)
		for _, th := range []float64{0.3, 0.5, 0.7, 1} {
			for _, normalize := range []bool{true, false} {
				b := OverlapCoefficient{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: th, Normalize: normalize}
				checkAgainstNaive(t, b, l, r, func(l, r *table.Table) []Pair {
					return naivePairs(l, r, "Title", tokenize.Word{}, normalize, func(a, b []string) bool {
						return simfunc.OverlapCoefficient(a, b) >= th
					})
				})
			}
		}
	}
	// A column mixing dense tokens and sparse ones.
	l, r := zipfTables(t, 2, 24, 1030)
	for _, th := range []float64{0.3, 0.5, 0.7, 1} {
		b := OverlapCoefficient{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: th, Normalize: true}
		checkAgainstNaive(t, b, l, r, func(l, r *table.Table) []Pair {
			return naivePairs(l, r, "Title", tokenize.Word{}, true, func(a, b []string) bool {
				return simfunc.OverlapCoefficient(a, b) >= th
			})
		})
	}
	// The ratio landing exactly on the threshold is kept.
	l = table.New("L", table.MustSchema(table.Field{Name: "Title", Kind: table.String}))
	l.MustAppend(table.Row{oracleCells[8]})
	r = table.New("R", l.Schema())
	r.MustAppend(table.Row{oracleCells[9]})
	got, err := OverlapCoefficient{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 0.7}.Block(context.Background(), l, r)
	if err != nil || got.Len() != 1 {
		t.Fatalf("7 of 10 tokens at threshold 0.7: %v, %v", got.Pairs(), err)
	}
}

// fuzzWords are the words FuzzTokenJoin builds titles from: case and
// unicode variants of a few, so the normalisation is fuzzed too.
var fuzzWords = []string{"corn", "Corn", "soy", "dairy", "rust", "blight", "soil", "weed", "farm", "north", "Müller", "müller"}

// FuzzTokenJoin holds Overlap, OverlapCoefficient and JaccardJoin, bound,
// to the nested-loop reference, pair sequences compared, over titles made
// of arbitrary bytes. The first three bytes pick the thresholds; the rest
// are rows, each ended by a byte of 0xf0 or more: a row's first byte sends
// it left when odd and right when even, and each byte after is a word of
// fuzzWords, then a space or a hyphen. 1,024 filler rows of words of
// their own follow the right rows, so a fuzzed word needs five right rows
// to be dense and is sparse with fewer: the inputs fall on both sides of
// the density rule.
func FuzzTokenJoin(f *testing.F) {
	f.Add([]byte{2, 6, 4, 0, 0, 1, 2, 0xf0, 1, 0, 1, 0xf0, 0, 0, 1, 0xf0, 0, 0, 2, 3, 0xf0,
		0, 0, 0xf0, 0, 0, 1, 0xf0, 0, 0, 5, 0xf0, 1, 0, 5, 0x81, 0xf0})
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 160)
		rng := rand.New(rand.NewSource(seed))
		for i := range b {
			if b[i] = byte(rng.Intn(8)); rng.Intn(5) == 0 {
				b[i] = 0xf0
			}
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 1024 {
			return
		}
		k := 1 + int(data[0]%4)
		oc, jac := float64(1+data[1]%10)/10, float64(1+data[2]%10)/10
		schema := table.MustSchema(table.Field{Name: "Title", Kind: table.String})
		l, r := table.New("L", schema), table.New("R", schema)
		var sb strings.Builder
		for rest := data[3:]; len(rest) > 0; {
			end := slices.IndexFunc(rest, func(b byte) bool { return b >= 0xf0 })
			if end < 0 {
				end = len(rest)
			}
			row := rest[:end]
			rest = rest[min(end+1, len(rest)):]
			if len(row) == 0 {
				continue
			}
			sb.Reset()
			for _, b := range row[1:] {
				sb.WriteString(fuzzWords[int(b)%len(fuzzWords)])
				sb.WriteString([]string{" ", "-"}[b>>7])
			}
			side := r
			if row[0]%2 == 1 {
				side = l
			}
			side.MustAppend(table.Row{table.S(sb.String())})
		}
		for i := 0; i < 1024; i++ {
			r.MustAppend(table.Row{table.S(fmt.Sprintf("filler%d other%d", i, i))})
		}
		bound := mustBind(t, r,
			Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: k, Normalize: true},
			OverlapCoefficient{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: oc, Normalize: true},
			JaccardJoin{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: jac, Normalize: true})
		for n, keep := range []func(a, b []string) bool{
			func(a, b []string) bool { return simfunc.OverlapSize(a, b) >= k },
			func(a, b []string) bool { return simfunc.OverlapCoefficient(a, b) >= oc },
			func(a, b []string) bool { return simfunc.Jaccard(a, b) >= jac },
		} {
			got, err := bound[n].Block(context.Background(), l, r)
			if err != nil {
				t.Fatal(err)
			}
			if want := naivePairs(l, r, "Title", tokenize.Word{}, true, keep); !slices.Equal(got.Pairs(), want) {
				t.Fatalf("%s:\n got %v\nwant %v", bound[n].Name(), got.Pairs(), want)
			}
		}
	})
}

// naiveDebug is the debugger's definition: every pair outside cand scored
// by its best column's Jaccard, positive scores only, best first.
func naiveDebug(cand *CandidateSet, cols map[string]string) []DebugPair {
	var out []DebugPair
	for i := 0; i < cand.Left.Len(); i++ {
		for j := 0; j < cand.Right.Len(); j++ {
			p := DebugPair{Pair: Pair{A: i, B: j}}
			for lc, rc := range cols {
				a := rawTokens(cand.Left.Get(i, lc), tokenize.Word{}, true)
				b := rawTokens(cand.Right.Get(j, rc), tokenize.Word{}, true)
				if len(a) > 0 && len(b) > 0 {
					p.Score = math.Max(p.Score, simfunc.Jaccard(a, b))
				}
			}
			if p.Score > 0 && !cand.Contains(p.Pair) {
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].Score != out[y].Score {
			return out[x].Score > out[y].Score
		}
		if out[x].Pair.A != out[y].Pair.A {
			return out[x].Pair.A < out[y].Pair.A
		}
		return out[x].Pair.B < out[y].Pair.B
	})
	return out
}

func TestDebuggerEquivalentToNaive(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, r := oracleTables(rng, 30, 40)
		blocker := Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true}
		bound := mustBind(t, r, blocker)[0]
		// The candidate set may come from any form of the blocker, over
		// the table or over a larger one.
		grown := table.New("R", r.Schema())
		for i := 0; i < r.Len(); i++ {
			grown.MustAppend(r.Row(i))
		}
		for i := 0; i < 10; i++ {
			grown.MustAppend(l.Row(i))
		}
		grownBound := mustBind(t, grown, blocker)[0]
		cands := map[string]*CandidateSet{}
		for how, run := range map[string]func() (*CandidateSet, error){
			"unbound":             func() (*CandidateSet, error) { return blocker.Block(context.Background(), l, r) },
			"bound":               func() (*CandidateSet, error) { return bound.Block(context.Background(), l, r) },
			"bound, larger table": func() (*CandidateSet, error) { return grownBound.Block(context.Background(), l, grown) },
			"nothing blocked":     func() (*CandidateSet, error) { return NewCandidateSet(l, r), nil },
		} {
			c, err := run()
			if err != nil {
				t.Fatal(err)
			}
			cands[how] = c
		}
		for how, cand := range cands {
			for _, cols := range []map[string]string{
				{"Title": "Title"},
				{"Title": "Title", "Name": "Name"},
				{"Title": "Name", "Name": "Title"},
			} {
				all := naiveDebug(cand, cols)
				// k = 3 cuts the kept list back many times over; 5000 is
				// more than there are pairs to return.
				for _, k := range []int{3, 100, 5000} {
					got, err := Debugger{Cols: cols, K: k}.Run(cand)
					if err != nil {
						t.Fatal(err)
					}
					want := all[:min(k, len(all))]
					if len(got) != len(want) {
						t.Fatalf("seed %d, %s, %v, k=%d: %d pairs, want %d", seed, how, cols, k, len(got), len(want))
					}
					for n := range got {
						if got[n].Pair != want[n].Pair || math.Float64bits(got[n].Score) != math.Float64bits(want[n].Score) {
							t.Fatalf("seed %d, %s, %v, k=%d: rank %d is %+v, want %+v", seed, how, cols, k, n, got[n], want[n])
						}
					}
				}
			}
		}
	}
}

// TestUnionSharesOnePassInOrder: a union over blockers sharing a column is
// the union, blocker by blocker, of what each emits alone — whatever else
// sits between them.
func TestUnionSharesOnePassInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, r := oracleTables(rng, 40, 50)
	blockers := []Blocker{
		AttrEquiv{LeftCol: "Name", RightCol: "Name"},
		Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 3, Normalize: true},
		OverlapCoefficient{LeftCol: "Name", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 0.5, Normalize: true},
		OverlapCoefficient{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 0.7, Normalize: true},
		JaccardJoin{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 0.4, Normalize: true},
		Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 2},
	}
	want := NewCandidateSet(l, r)
	for _, b := range blockers {
		c, err := b.Block(context.Background(), l, r)
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() == 0 {
			t.Fatalf("fixture: %s blocks nothing", b.Name())
		}
		for _, p := range c.Pairs() {
			want.Add(p)
		}
	}
	for how, bs := range map[string][]Blocker{"unbound": blockers, "bound": mustBind(t, r, blockers...)} {
		got, err := UnionBlockCtx(context.Background(), l, r, bs...)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Pairs(), want.Pairs()) {
			t.Fatalf("%s union:\n got %v\nwant %v", how, got.Pairs(), want.Pairs())
		}
	}
}

func ExampleBind() {
	schema := table.MustSchema(table.Field{Name: "Title", Kind: table.String})
	usda := table.New("USDA", schema)
	usda.MustAppend(table.Row{table.S("corn fungicide guidelines")})
	usda.MustAppend(table.Row{table.S("swamp dodder ecology")})
	// Built once...
	blockers, err := Bind(context.Background(), usda, Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 2, Normalize: true})
	if err != nil {
		fmt.Println(err)
		return
	}
	// ...probed per request.
	for _, title := range []string{"Corn Fungicide trial", "dodder ecology"} {
		request := table.New("request", schema)
		request.MustAppend(table.Row{table.S(title)})
		c, _ := UnionBlockCtx(context.Background(), request, usda, blockers...)
		fmt.Println(title, "->", c.Pairs())
	}
	// Output:
	// Corn Fungicide trial -> [{0 0}]
	// dodder ecology -> [{0 1}]
}
