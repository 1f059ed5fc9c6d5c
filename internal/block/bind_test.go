package block

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// sideCounter is a word tokenizer counting the cells it is handed, right
// cells (every right title of figure10Tables names "usda") apart from the
// rest. It is used by pointer, so blockers holding the same counter are
// over the same token form.
type sideCounter struct{ right, other atomic.Int64 }

func (c *sideCounter) Tokens(s string) []string {
	if strings.Contains(s, "usda") {
		c.right.Add(1)
	} else {
		c.other.Add(1)
	}
	return tokenize.Word{}.Tokens(s)
}

func (c *sideCounter) Name() string { return "side_counter" }

// figure10Tables builds Num/Title tables whose row i titles agree on four
// words; right titles also carry the marker word "usda".
func figure10Tables(nl, nr int) (*table.Table, *table.Table) {
	schema := table.MustSchema(
		table.Field{Name: "Num", Kind: table.String},
		table.Field{Name: "Title", Kind: table.String})
	words := []string{"corn", "soy", "dairy", "rust", "blight", "soil", "weed", "farm", "north", "central"}
	title := func(i int) string {
		return strings.Join([]string{words[i%10], words[(i/10)%10], words[(i/100)%10], "study"}, " ")
	}
	l, r := table.New("L", schema), table.New("R", schema)
	for i := 0; i < nl; i++ {
		l.MustAppend(table.Row{table.S("N" + title(i)), table.S(title(i))})
	}
	for i := 0; i < nr; i++ {
		r.MustAppend(table.Row{table.S("N" + title(i)), table.S(title(i) + " usda")})
	}
	return l, r
}

// figure10 is the deployed blocking pipeline's shape: the key blocker and
// the two title blockers, both title blockers over tok.
func figure10(tok tokenize.Tokenizer) []Blocker {
	return []Blocker{
		AttrEquiv{LeftCol: "Num", RightCol: "Num"},
		Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tok, Threshold: 3, Normalize: true},
		OverlapCoefficient{LeftCol: "Title", RightCol: "Title", Tokenizer: tok, Threshold: 0.7, Normalize: true},
	}
}

// TestUnionTokenisesEachCellOnce: the two title blockers of one union
// share a column and a count pass, so a union nobody bound tokenises every
// right title once and every left title once; bound, it tokenises no right
// title at all.
func TestUnionTokenisesEachCellOnce(t *testing.T) {
	l, r := figure10Tables(50, 120)
	tok := &sideCounter{}
	want, err := UnionBlock(l, r, figure10(tokenize.Word{})...)
	if err != nil || want.Len() == 0 {
		t.Fatalf("fixture: %d pairs, %v", want.Len(), err)
	}

	got, err := UnionBlock(l, r, figure10(tok)...)
	if err != nil || !slices.Equal(got.Pairs(), want.Pairs()) {
		t.Fatalf("counting union differs: %v", err)
	}
	if right, left := tok.right.Load(), tok.other.Load(); right != int64(r.Len()) || left != int64(l.Len()) {
		t.Fatalf("unbound union tokenised %d right and %d left cells, want %d and %d", right, left, r.Len(), l.Len())
	}

	bound := Bind(r, figure10(tok)...)
	if right := tok.right.Load(); right != 2*int64(r.Len()) {
		t.Fatalf("Bind tokenised %d right cells, want %d", right-int64(r.Len()), r.Len())
	}
	for n := 0; n < 3; n++ {
		got, err = UnionBlock(l, r, bound...)
		if err != nil || !slices.Equal(got.Pairs(), want.Pairs()) {
			t.Fatalf("bound union differs: %v", err)
		}
	}
	if right, left := tok.right.Load(), tok.other.Load(); right != 2*int64(r.Len()) || left != 4*int64(l.Len()) {
		t.Fatalf("three bound unions tokenised %d right and %d left cells, want 0 and %d", right-2*int64(r.Len()), left-int64(l.Len()), 3*l.Len())
	}
}

// TestColdBindRace: goroutines meeting a cold bound blocker at once wait
// for one build of its column and all read that one (run under -race
// -count=10 -cpu 1,2).
func TestColdBindRace(t *testing.T) {
	l, r := figure10Tables(40, 200)
	want, err := UnionBlock(l, r, figure10(tokenize.Word{})...)
	if err != nil {
		t.Fatal(err)
	}
	tok := &sideCounter{}
	cold := Bound(figure10(tok)...)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			var got *CandidateSet
			var err error
			if g%2 == 0 {
				got, err = UnionBlockCtx(context.Background(), l, r, cold...)
			} else {
				// Blocker by blocker, unioned by hand.
				got = NewCandidateSet(l, r)
				for _, b := range cold {
					var c *CandidateSet
					if c, err = b.Block(l, r); err != nil {
						break
					}
					for _, p := range c.Pairs() {
						got.Add(p)
					}
				}
			}
			if err != nil || !slices.Equal(got.Pairs(), want.Pairs()) {
				t.Errorf("goroutine %d: pairs differ from the single-threaded union (err %v)", g, err)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if right := tok.right.Load(); right != int64(r.Len()) {
		t.Fatalf("8 cold callers tokenised %d right cells, want one build of %d", right, r.Len())
	}
}

// TestBindLeavesTheRestAlone: blockers with nothing to prepare, and
// blockers that cannot run, come back from Bind as they went in and still
// say so from Block.
func TestBindLeavesTheRestAlone(t *testing.T) {
	l, r := figure10Tables(5, 5)
	all := Func{Label: "all", Keep: func(left, right table.Row) bool { return true }}
	bound := Bind(r,
		all,
		Overlap{LeftCol: "Title", RightCol: "Title", Threshold: 1},
		Overlap{LeftCol: "Title", RightCol: "Nope", Tokenizer: tokenize.Word{}, Threshold: 1},
		AttrEquiv{LeftCol: "Num", RightCol: "Nope"},
	)
	if c, err := bound[0].Block(l, r); err != nil || c.Len() != 25 {
		t.Fatalf("func blocker through Bind: %v", err)
	}
	for _, b := range bound[1:] {
		if _, err := b.Block(l, r); err == nil {
			t.Errorf("%s: Block should report what Bind could not prepare", b.Name())
		}
	}
	if _, err := UnionBlock(l, r, bound[2]); err == nil || !strings.Contains(err.Error(), bound[2].Name()) {
		t.Errorf("union over an unbuildable blocker: %v", err)
	}
}
