package block

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"emgo/internal/simfunc"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// sliceTokenizer is a tokenizer of a type Go cannot compare: == on two
// interface values holding it panics.
type sliceTokenizer []string

func (sliceTokenizer) Tokens(s string) []string { return strings.Fields(s) }
func (sliceTokenizer) Name() string             { return "slice" }

// TestFormSame: forms share when fold and tokenizer are equal; a tokenizer
// that cannot be compared, or none at all, shares with nothing — itself
// included — and asking does not panic.
func TestFormSame(t *testing.T) {
	ptr := &sideCounter{}
	for _, c := range []struct {
		a, b Form
		want bool
	}{
		{Form{Tok: tokenize.Word{}}, Form{Tok: tokenize.Word{}}, true},
		{Form{Tok: tokenize.Word{}, Fold: FoldLower}, Form{Tok: tokenize.Word{}, Fold: FoldNormalize}, false},
		{Form{Tok: tokenize.Word{}}, Form{Tok: tokenize.Whitespace{}}, false},
		{Form{Tok: tokenize.QGram{Q: 3}}, Form{Tok: tokenize.QGram{Q: 3}}, true},
		{Form{Tok: tokenize.QGram{Q: 3}}, Form{Tok: tokenize.QGram{Q: 3, Pad: true}}, false},
		{Form{Tok: ptr}, Form{Tok: ptr}, true},
		{Form{Tok: ptr}, Form{Tok: &sideCounter{}}, false},
		{Form{Tok: sliceTokenizer{}}, Form{Tok: sliceTokenizer{}}, false},
		{Form{}, Form{}, false},
	} {
		if got := c.a.Same(c.b); got != c.want {
			t.Errorf("%+v same as %+v: %v, want %v", c.a, c.b, got, c.want)
		}
	}

	// Two blockers under a form that never shares each build a column of
	// their own, and still block.
	l, r := figure10Tables(20, 30)
	bound := mustBind(t, r, figure10(sliceTokenizer{})...)
	if a, b := bound[1].(*boundTokens), bound[2].(*boundTokens); a.col == b.col {
		t.Fatal("blockers over a tokenizer that cannot be compared share a column")
	}
	got, err := UnionBlock(l, r, bound...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := UnionBlock(l, r, figure10(tokenize.Whitespace{})...)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Pairs(), want.Pairs()) {
		t.Fatalf("%d pairs under the slice tokenizer, %d under the whitespace tokenizer it copies", got.Len(), want.Len())
	}
}

// TestColumnCountsMatchTokenSets: under every fold, dictionary or packed,
// a column built over the right cells and a left cell's keys against it
// have the sizes and the intersection of the folded cells' token sets; a
// null cell is null and an unknown token still counts in the left size.
func TestColumnCountsMatchTokenSets(t *testing.T) {
	l, r := oracleTables(rand.New(rand.NewSource(5)), 40, 60)
	fold := map[Fold]func(string) string{
		FoldNone:      func(s string) string { return s },
		FoldLower:     tokenize.Lower,
		FoldNormalize: tokenize.Normalize,
	}
	for _, tok := range []tokenize.Tokenizer{tokenize.Word{}, tokenize.Whitespace{}, tokenize.QGram{Q: 3}, tokenize.QGram{Q: 4}} {
		for f, text := range fold {
			for _, pack := range []bool{false, true} {
				form := Form{Tok: tok, Fold: f}
				col := NewColumn(form, pack)
				if g, ok := tok.(tokenize.QGram); col.Packed() != (pack && ok && g.Packs()) {
					t.Fatalf("%s pack=%v: Packed() = %v", tok.Name(), pack, col.Packed())
				}
				if err := col.Build(context.Background(), r, 0, nil); err != nil {
					t.Fatal(err)
				}
				set := func(v table.Value) []string { return tokenize.SortedSet(tok.Tokens(text(v.Str()))) }
				var keys []uint64
				for i := 0; i < l.Len(); i++ {
					a := l.Row(i)[0]
					var null bool
					if keys, null = col.AppendKeys(keys[:0], a, false); null != a.IsNull() {
						t.Fatalf("left row %d: null = %v", i, null)
					}
					for j := 0; j < r.Len() && !null; j++ {
						b, cell := r.Row(j)[0], col.Cell(j)
						if cell.Null != b.IsNull() {
							t.Fatalf("right row %d: Null = %v", j, cell.Null)
						}
						if cell.Null {
							continue
						}
						ta, tb := set(a), set(b)
						got := [3]int{simfunc.SortedIntersectionSize(keys, cell.Keys), len(keys), len(cell.Keys)}
						if want := [3]int{simfunc.SortedIntersectionSize(ta, tb), len(ta), len(tb)}; got != want {
							t.Fatalf("%s fold=%v pack=%v (%q, %q): column counts %v, token sets %v", tok.Name(), f, pack, a.Str(), b.Str(), got, want)
						}
					}
				}
			}
		}
	}
}

// TestColumnBuildOverRowsAndCancel: a column over a row list holds those
// rows' cells in list order; a cancelled build is an error and leaves no
// cells behind.
func TestColumnBuildOverRowsAndCancel(t *testing.T) {
	_, r := oracleTables(rand.New(rand.NewSource(6)), 1, 200)
	form := Form{Tok: tokenize.Word{}, Fold: FoldNormalize}
	all := NewColumn(form, false)
	if err := all.Build(context.Background(), r, 0, nil); err != nil {
		t.Fatal(err)
	}
	rows := []int{3, 17, 18, 150, 199}
	some := NewColumn(form, false)
	if err := some.Build(context.Background(), r, 0, rows); err != nil {
		t.Fatal(err)
	}
	for slot, row := range rows {
		got, want := some.Cell(slot), all.Cell(row)
		if got.Null != want.Null || len(got.Keys) != len(want.Keys) {
			t.Fatalf("slot %d (row %d): %d keys null=%v, want %d null=%v", slot, row, len(got.Keys), got.Null, len(want.Keys), want.Null)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cut := NewColumn(form, false)
	if err := cut.Build(ctx, r, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: %v, want context.Canceled", err)
	}
	if cut.cells != nil {
		t.Fatal("a build cut short left cells behind")
	}
	if _, err := buildTokenColumn(ctx, r, "Title", form); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled token column: %v, want context.Canceled", err)
	}
}

func ExampleColumn() {
	right := table.New("R", table.MustSchema(table.Field{Name: "Title", Kind: table.String}))
	right.MustAppend(table.Row{table.S("Corn rust; corn blight")})
	col := NewColumn(Form{Tok: tokenize.Word{}, Fold: FoldLower}, false)
	_ = col.Build(context.Background(), right, 0, nil)
	keys, _ := col.AppendKeys(nil, table.S("CORN smut"), false)
	cell := col.Cell(0)
	fmt.Println(simfunc.SortedIntersectionSize(keys, cell.Keys), len(keys), len(cell.Keys))
	// Output: 1 2 3
}
