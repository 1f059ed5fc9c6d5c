package block

import (
	"context"
	"errors"
	"fmt"
	"maps"
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

// TestFormSame: forms share when fold and tokenizer are equal, and under
// the word tokenizer Lower and Normalize are one fold; a tokenizer that
// cannot be compared, or none at all, shares with nothing — itself
// included — and asking does not panic.
func TestFormSame(t *testing.T) {
	ptr := &sideCounter{}
	for _, c := range []struct {
		a, b Form
		want bool
	}{
		{Form{Tok: tokenize.Word{}}, Form{Tok: tokenize.Word{}}, true},
		{Form{Tok: tokenize.Word{}, Fold: FoldLower}, Form{Tok: tokenize.Word{}, Fold: FoldNormalize}, true},
		{Form{Tok: tokenize.Word{}, Fold: FoldNormalize}, Form{Tok: tokenize.Word{}, Fold: FoldLower}, true},
		{Form{Tok: tokenize.Word{}}, Form{Tok: tokenize.Word{}, Fold: FoldLower}, false},
		{Form{Tok: tokenize.Word{}}, Form{Tok: tokenize.Word{}, Fold: FoldNormalize}, false},
		{Form{Tok: tokenize.QGram{Q: 3}, Fold: FoldLower}, Form{Tok: tokenize.QGram{Q: 3}, Fold: FoldNormalize}, false},
		{Form{Tok: tokenize.Whitespace{}, Fold: FoldLower}, Form{Tok: tokenize.Whitespace{}, Fold: FoldNormalize}, false},
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
	for _, tok := range []tokenize.Tokenizer{tokenize.Word{}, tokenize.Whitespace{}, tokenize.QGram{Q: 3}, tokenize.QGram{Q: 4}} {
		for f, text := range foldText {
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

// stringWord is the word tokenizer under a type of its own, so a column
// under it takes the string path: fold the text, split it into token
// strings, sort them and look each up. It is the reference the word
// kernel is held to.
type stringWord struct{ tokenize.Word }

// wordCells are what the word kernel must read as the string path does:
// runes whose lower case is ASCII or another length in bytes, title-case
// and Greek capitals, digits and letters past ASCII, an invalid byte next
// to the U+FFFD it decodes to, a NUL, a title of over 300 bytes, and
// cells with no word at all.
var wordCells = []string{
	"\u212Aelvin KELVIN kelvin", "İSTANBUL istanbul", "Straße STRASSE straße", "ΣΟΦΟΣ σοφος",
	"٠١٢ 012 ٣٤", "ＦＵＬＬ ｆｕｌｌ FULL", "\xff", "a\xffb A\xffB", "\ufffd", "ǅ ǆ Ǆ", "",
	"!!! ### (){} ;:", `SWAMP DODDER (Cuscuta) "Ecology"!`, "corn corn CORN", "x\x00y",
	strings.Repeat("Integrated Pest-Management of CORN & soybean; ", 7),
}

// foldText is what the string path tokenises a cell's text as under fold.
var foldText = map[Fold]func(string) string{
	FoldNone:      func(s string) string { return s },
	FoldLower:     tokenize.Lower,
	FoldNormalize: tokenize.Normalize,
}

// checkWordKeys holds the word kernel to the string path over two cells
// under every fold: built over a table of b and a, the two number the
// dictionary alike and give every cell the same keys; and a's keys
// against a column built over b alone — tokens it lacks included — equal
// the string path's and count what Word.Tokens of the folded texts does.
// Under Lower and under Normalize the string path's columns are equal too,
// dictionary and cells: what lets Form.Same give both one column.
func checkWordKeys(t *testing.T, a, b string) {
	t.Helper()
	right := table.New("R", table.MustSchema(table.Field{Name: "Title", Kind: table.String}))
	right.MustAppend(table.Row{table.S(b)})
	right.MustAppend(table.Row{table.S(a)})
	lower, normalized := NewColumn(Form{Tok: stringWord{}, Fold: FoldLower}, false), NewColumn(Form{Tok: stringWord{}, Fold: FoldNormalize}, false)
	for _, c := range []*Column{lower, normalized} {
		if err := c.Build(context.Background(), right, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !maps.Equal(lower.ids, normalized.ids) {
		t.Fatalf("(%q, %q): dictionary %v under Lower, %v under Normalize", a, b, lower.ids, normalized.ids)
	}
	for i := range right.Len() {
		if got, want := normalized.Cell(i), lower.Cell(i); !slices.Equal(got.Keys, want.Keys) || got.Null != want.Null {
			t.Fatalf("row %d (%q): keys %v under Normalize, %v under Lower", i, right.Row(i)[0].Str(), got.Keys, want.Keys)
		}
	}
	for f, text := range foldText {
		kernel, ref := NewColumn(Form{Tok: tokenize.Word{}, Fold: f}, false), NewColumn(Form{Tok: stringWord{}, Fold: f}, false)
		for _, c := range []*Column{kernel, ref} {
			if err := c.Build(context.Background(), right, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		if !maps.Equal(kernel.ids, ref.ids) {
			t.Fatalf("fold=%v (%q, %q): dictionary %v, string path %v", f, a, b, kernel.ids, ref.ids)
		}
		for i := range right.Len() {
			if got, want := kernel.Cell(i), ref.Cell(i); !slices.Equal(got.Keys, want.Keys) {
				t.Fatalf("fold=%v row %d (%q): keys %v, string path %v", f, i, right.Row(i)[0].Str(), got.Keys, want.Keys)
			}
		}

		kernel, ref = NewColumn(kernel.form, false), NewColumn(ref.form, false)
		kb, _ := kernel.AppendKeys(nil, table.S(b), true)
		ka, _ := kernel.AppendKeys(nil, table.S(a), false)
		rb, _ := ref.AppendKeys(nil, table.S(b), true)
		ra, _ := ref.AppendKeys(nil, table.S(a), false)
		if !slices.Equal(ka, ra) || !slices.Equal(kb, rb) {
			t.Fatalf("fold=%v (%q, %q): keys %v and %v, string path %v and %v", f, a, b, ka, kb, ra, rb)
		}
		ta, tb := tokenize.SortedSet(tokenize.Word{}.Tokens(text(a))), tokenize.SortedSet(tokenize.Word{}.Tokens(text(b)))
		got := [3]int{simfunc.SortedIntersectionSize(ka, kb), len(ka), len(kb)}
		if want := [3]int{simfunc.SortedIntersectionSize(ta, tb), len(ta), len(tb)}; got != want {
			t.Fatalf("fold=%v (%q, %q): keys count %v, token sets %v", f, a, b, got, want)
		}
	}
}

// TestWordKeysMatchStringPath is checkWordKeys over every pair of the
// word cells.
func TestWordKeysMatchStringPath(t *testing.T) {
	for _, a := range wordCells {
		for _, b := range wordCells {
			checkWordKeys(t, a, b)
		}
	}
}

// FuzzWordKeys is checkWordKeys over arbitrary strings.
func FuzzWordKeys(f *testing.F) {
	for i, s := range wordCells {
		f.Add(s, wordCells[(i+3)%len(wordCells)])
	}
	f.Fuzz(checkWordKeys)
}

// TestWordKeysAllocateNothing: on a built word column, the keys of an
// ASCII cell — its words known, or not — go into a grown dst without an
// allocation under every fold: no lowered or stripped copy of the cell,
// and no string for a word the dictionary lacks.
func TestWordKeysAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race runtime's")
	}
	_, r := oracleTables(rand.New(rand.NewSource(7)), 1, 200)
	cells := []table.Value{
		table.S("corn soy)! dairy-rust (Blight  CORN"),
		table.S(`SWAMP Dodder (Cuscuta) "Ecology"! of Corn, in Zyzzyva-Quux county #42`),
	}
	for f := range foldText {
		col := NewColumn(Form{Tok: tokenize.Word{}, Fold: f}, false)
		if err := col.Build(context.Background(), r, 0, nil); err != nil {
			t.Fatal(err)
		}
		for _, v := range cells {
			dst := make([]uint64, 0, len(v.Str()))
			if n := testing.AllocsPerRun(100, func() { dst, _ = col.AppendKeys(dst[:0], v, false) }); n != 0 {
				t.Errorf("fold=%v %q: %v allocations a cell", f, v.Str(), n)
			}
		}
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
