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
	var out []Pair
	for i := 0; i < l.Len(); i++ {
		a := rawTokens(l.Get(i, col), tok, normalize)
		for j := 0; j < r.Len() && len(a) > 0; j++ {
			if b := rawTokens(r.Get(j, col), tok, normalize); len(b) > 0 && keep(a, b) {
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
	got, err := b.Block(l, r)
	same("unbound", got, err, r)

	bound := mustBind(t, r, b)[0]
	for n := 0; n < 2; n++ {
		got, err = bound.Block(l, r)
		same("bound", got, err, r)
	}

	// Bound to one table, asked about another: an error naming both.
	other := table.New("other", r.Schema())
	for i := 0; i < r.Len(); i++ {
		other.MustAppend(r.Row(i))
	}
	if _, err = bound.Block(l, other); !namesBoth(err, r, other) {
		t.Fatalf("%s bound to %s, asked about %s: %v, want an error naming both", b.Name(), r.Name(), other.Name(), err)
	}
	got, err = mustBind(t, other, b)[0].Block(l, other)
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
	// The ratio landing exactly on the threshold is kept.
	l := table.New("L", table.MustSchema(table.Field{Name: "Title", Kind: table.String}))
	l.MustAppend(table.Row{oracleCells[8]})
	r := table.New("R", l.Schema())
	r.MustAppend(table.Row{oracleCells[9]})
	got, err := OverlapCoefficient{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 0.7}.Block(l, r)
	if err != nil || got.Len() != 1 {
		t.Fatalf("7 of 10 tokens at threshold 0.7: %v, %v", got.Pairs(), err)
	}
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
			"unbound":             func() (*CandidateSet, error) { return blocker.Block(l, r) },
			"bound":               func() (*CandidateSet, error) { return bound.Block(l, r) },
			"bound, larger table": func() (*CandidateSet, error) { return grownBound.Block(l, grown) },
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
		c, err := b.Block(l, r)
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
		got, err := UnionBlock(l, r, bs...)
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
		c, _ := UnionBlock(request, usda, blockers...)
		fmt.Println(title, "->", c.Pairs())
	}
	// Output:
	// Corn Fungicide trial -> [{0 0}]
	// dodder ecology -> [{0 1}]
}
